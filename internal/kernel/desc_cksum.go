package kernel

import (
	"errors"
	"io"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/sim"
)

// ErrCorrupt reports a checksum-verifying descriptor whose stream did not
// match the expected checksum at end of stream.
var ErrCorrupt = errors.New("kernel: descriptor stream failed checksum verification")

// cksumDesc wraps any descriptor with read-side integrity verification —
// the ROADMAP's "new descriptor kinds via Process.Install" shape: no
// kernel changes, just a Desc around a Desc. Every byte read through it is
// folded into a running Internet checksum; when the inner stream reports
// end of stream, the finished sum is compared against the expected value
// and a mismatch surfaces as ErrCorrupt instead of a clean io.EOF.
//
// The verification work is charged the way §3.9 says it should be:
// aggregate reads go through the machine's checksum cache, so sealed
// buffers whose slice sums are already cached (a document that was
// checksummed when it was sent, a pipe payload the producer summed) cost
// one CksumLookup probe per warm slice rather than a pass over the bytes.
// Cold slices — and copy-mode reads, whose private bytes have no stable
// identity to cache under — charge full checksum cost.
type cksumDesc struct {
	m     *Machine
	inner Desc
	want  uint16

	acc  cksum.PartialSum
	off  int
	done bool // verdict delivered; subsequent reads just relay the inner stream
}

// NewCksumDesc wraps inner with read-side verification against want, the
// finished Internet checksum of the whole stream. Install the result with
// Process.Install and read through the returned fd.
func NewCksumDesc(m *Machine, inner Desc, want uint16) Desc {
	return &cksumDesc{m: m, inner: inner, want: want}
}

// foldAgg absorbs an aggregate into the running sum, charging cached or
// full checksum work.
func (d *cksumDesc) foldAgg(p *sim.Proc, a *core.Agg) {
	var part cksum.PartialSum
	if ck := d.m.CkCache; ck != nil {
		part = ck.Partial(p, d.m.Costs, a)
	} else {
		part = cksum.Sum(a.Materialize())
		if p != nil {
			d.m.Host.Use(p, d.m.Costs.Cksum(a.Len()))
		}
	}
	d.acc = cksum.Combine(d.acc, part, d.off)
	d.off += a.Len()
}

// foldBytes absorbs copied-out bytes into the running sum (full checksum
// cost: private copies have no cacheable buffer identity).
func (d *cksumDesc) foldBytes(p *sim.Proc, b []byte) {
	d.acc = cksum.Combine(d.acc, cksum.Sum(b), d.off)
	d.off += len(b)
	if p != nil {
		d.m.Host.Use(p, d.m.Costs.Cksum(len(b)))
	}
}

// verify converts end of stream into the verification verdict.
func (d *cksumDesc) verify() error {
	d.done = true
	if cksum.Finish(d.acc) != d.want {
		return ErrCorrupt
	}
	return io.EOF
}

func (d *cksumDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	a, err := d.inner.ReadAgg(p, pr, n)
	if err != nil {
		if err == io.EOF && !d.done {
			return nil, d.verify()
		}
		return nil, err
	}
	d.foldAgg(p, a)
	return a, nil
}

func (d *cksumDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	n, err := d.inner.ReadCopy(p, pr, dst)
	if n > 0 {
		d.foldBytes(p, dst[:n])
	}
	if err != nil {
		if err == io.EOF && !d.done {
			return n, d.verify()
		}
		return n, err
	}
	return n, nil
}

// Writes pass through untouched: the wrapper guards what this process
// consumes, not what it produces.
func (d *cksumDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	return d.inner.WriteAgg(p, pr, a)
}

func (d *cksumDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	return d.inner.WriteCopy(p, pr, src)
}

// Seek is refused even over a seekable inner descriptor: a running stream
// checksum is only meaningful for sequential consumption.
func (d *cksumDesc) Seek(int64, int) (int64, error) { return 0, ErrNotSupported }

func (d *cksumDesc) Close(p *sim.Proc) error { return d.inner.Close(p) }
