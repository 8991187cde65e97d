package kernel

import (
	"iolite/internal/core"
	"iolite/internal/sim"
)

// LimitConfig sizes a rate-limiter descriptor. Tokens are bytes.
type LimitConfig struct {
	// BytesPerSec is the sustained rate; ignored when Bucket is set.
	BytesPerSec int64
	// Burst is the bucket capacity in bytes (default: one second of
	// rate); ignored when Bucket is set.
	Burst int64
	// Bucket, when non-nil, is a shared bucket to charge instead of a
	// private one — the per-tenant shape: every descriptor a tenant owns
	// draws from the same allowance.
	Bucket *TokenBucket
}

// LimitDesc wraps any descriptor with token-bucket rate enforcement — the
// ROADMAP's rate-limiter descriptor: no kernel changes, a Desc around a
// Desc installed via Process.Install, with waits charged on the shared
// sim.Wheel. Writes (and splice-in) are paced on admission: the proc parks
// on the bucket before the inner descriptor sees the bytes. Reads (and
// splice-out) are paced on delivery: the byte count is only known after
// the inner read, so the proc parks after taking the data — the long-run
// rate is identical.
//
// The wrapper forwards the inner descriptor's capabilities (splice ends,
// cork, nonblock, poll), so limited sockets still compose with the splice
// fast path, TCP_CORK, and readiness/ring loops. Under O_NONBLOCK the
// bucket is charged as debt instead of parking: ops proceed while the
// bucket is solvent and return ErrAgain while debt drains, which throttles
// a readiness loop to the configured rate without ever parking it.
type LimitDesc struct {
	m      *Machine
	inner  Desc
	bucket *TokenBucket

	nonblock bool
}

// NewLimitDesc wraps inner with rate enforcement per cfg. Install the
// result with Process.Install and use the returned fd in place of the
// inner descriptor's.
func NewLimitDesc(m *Machine, inner Desc, cfg LimitConfig) *LimitDesc {
	b := cfg.Bucket
	if b == nil {
		b = NewTokenBucket(m.Eng, cfg.BytesPerSec, cfg.Burst)
	}
	return &LimitDesc{m: m, inner: inner, bucket: b}
}

// Bucket exposes the descriptor's bucket (for sharing and for meters).
func (d *LimitDesc) Bucket() *TokenBucket { return d.bucket }

// charge debits n bytes: parking until paid, or as non-parking debt under
// O_NONBLOCK.
func (d *LimitDesc) charge(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	if d.nonblock {
		d.bucket.ForceTake(n)
		return
	}
	d.bucket.Take(p, n)
}

// admit gates a nonblocking op: refuse while the bucket is insolvent.
func (d *LimitDesc) admit() error {
	if d.nonblock && !d.bucket.Solvent() {
		return ErrAgain
	}
	return nil
}

func (d *LimitDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	if err := d.admit(); err != nil {
		return nil, err
	}
	a, err := d.inner.ReadAgg(p, pr, n)
	if a != nil {
		d.charge(p, int64(a.Len()))
	}
	return a, err
}

func (d *LimitDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	if err := d.admit(); err != nil {
		return 0, err
	}
	n, err := d.inner.ReadCopy(p, pr, dst)
	if n > 0 {
		d.charge(p, int64(n))
	}
	return n, err
}

func (d *LimitDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	if err := d.admit(); err != nil {
		return err
	}
	d.charge(p, int64(a.Len()))
	return d.inner.WriteAgg(p, pr, a)
}

func (d *LimitDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	if err := d.admit(); err != nil {
		return 0, err
	}
	d.charge(p, int64(len(src)))
	return d.inner.WriteCopy(p, pr, src)
}

func (d *LimitDesc) Seek(off int64, whence int) (int64, error) {
	return d.inner.Seek(off, whence)
}

func (d *LimitDesc) Close(p *sim.Proc) error { return d.inner.Close(p) }

// SpliceOut implements SpliceSource when the inner descriptor does: the
// spliced bytes are debited after they are produced.
func (d *LimitDesc) SpliceOut(p *sim.Proc, n int64) (*core.Agg, error) {
	src, ok := d.inner.(SpliceSource)
	if !ok {
		return nil, ErrNotSupported
	}
	a, err := src.SpliceOut(p, n)
	if a != nil {
		d.charge(p, int64(a.Len()))
	}
	return a, err
}

// SpliceOutAt implements SpliceSourceAt when the inner descriptor does.
func (d *LimitDesc) SpliceOutAt(p *sim.Proc, off, n int64) (*core.Agg, error) {
	src, ok := d.inner.(SpliceSourceAt)
	if !ok {
		return nil, ErrNotSupported
	}
	a, err := src.SpliceOutAt(p, off, n)
	if a != nil {
		d.charge(p, int64(a.Len()))
	}
	return a, err
}

// SpliceIn implements SpliceSink when the inner descriptor does: the
// splice is paced on admission, before the sink sees the aggregate.
func (d *LimitDesc) SpliceIn(p *sim.Proc, a *core.Agg) error {
	sink, ok := d.inner.(SpliceSink)
	if !ok {
		return ErrNotSupported
	}
	d.charge(p, int64(a.Len()))
	return sink.SpliceIn(p, a)
}

// spliceInSupported forwards the inner sink's instance-state veto.
func (d *LimitDesc) spliceInSupported() bool {
	if _, ok := d.inner.(SpliceSink); !ok {
		return false
	}
	if sr, ok := d.inner.(spliceSinkReady); ok {
		return sr.spliceInSupported()
	}
	return true
}

// SetCork forwards the corker capability so Machine.SetCork works through
// the limiter.
func (d *LimitDesc) SetCork(on bool) {
	if c, ok := d.inner.(corker); ok {
		c.SetCork(on)
	}
}

// setNonblock switches the limiter (and the inner descriptor, if it
// understands O_NONBLOCK) into nonblocking debt accounting.
func (d *LimitDesc) setNonblock(on bool) {
	d.nonblock = on
	if nb, ok := d.inner.(nonblocker); ok {
		nb.setNonblock(on)
	}
}

// PollReady reports the inner descriptor's readiness, masked by bucket
// solvency: an insolvent bucket would turn the next nonblocking op into
// ErrAgain, so the descriptor is not ready.
func (d *LimitDesc) PollReady() Interest {
	var r Interest
	if pl, ok := d.inner.(Pollable); ok {
		r = pl.PollReady()
	} else {
		r = Readable | Writable
	}
	if !d.bucket.Solvent() {
		r = 0
	}
	return r
}

// SetPollNotify forwards readiness notifications from the inner
// descriptor and registers the hook with the bucket, which fires it when
// solvency returns.
func (d *LimitDesc) SetPollNotify(fn func()) {
	if pl, ok := d.inner.(Pollable); ok {
		pl.SetPollNotify(fn)
	}
	d.bucket.SetNotify(fn)
}
