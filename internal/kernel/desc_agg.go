package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// aggDesc is a splice source over a sealed, kernel-resident buffer
// aggregate — a memfd-style object. Servers use it to hold hot responses
// (a caching proxy's per-stream cache, a pre-rendered document) behind an
// fd so the splice fast path can send them without any user-space handling:
// the aggregate never leaves the kernel, its buffers keep their identity,
// and every send after the first hits the checksum cache.
//
// It demonstrates the Process.Install extension point: a new descriptor
// kind with one capability, SpliceSourceAt, added with no Machine changes.
type aggDesc struct {
	a *core.Agg
}

// NewAggDesc wraps a sealed aggregate as an installable splice-source
// descriptor. Ownership of a's reference transfers to the descriptor; it is
// released when the descriptor's fd closes.
func NewAggDesc(a *core.Agg) Desc {
	return &aggDesc{a: a}
}

// SpliceOutAt hands [off, off+n) of the sealed object, clipped to its end,
// over in-kernel: the same immutable buffers, no copy, no user grant, no
// per-slice boundary validation — the flat splice hand-off.
func (d *aggDesc) SpliceOutAt(_ *sim.Proc, off, n int64) (*core.Agg, error) {
	size := int64(d.a.Len())
	if off >= size {
		return nil, io.EOF
	}
	if n > size-off {
		n = size - off
	}
	return d.a.Range(int(off), int(n)), nil
}

func (d *aggDesc) Close(p *sim.Proc) error {
	d.a.Release()
	return nil
}
