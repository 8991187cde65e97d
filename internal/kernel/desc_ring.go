package kernel

import (
	"iolite/internal/core"
	"iolite/internal/sim"
)

// The submission ring is the io_uring half of the batched-syscall
// subsystem: applications queue descriptor operations and pay one charged
// syscall to submit N of them (Submit) and one to collect their results
// (Reap). The ops execute on kernel worker processes — the io-wq analogue —
// charging their data costs (copies, aggregate ops, cache work) to the
// machine exactly as the direct entry points would; only the per-op kernel
// crossings disappear. Per-op error results, zero-copy *core.Agg returns,
// and splice's zero-copy pin all survive batching because execution reuses
// the same Desc methods the direct calls dispatch to.

// RingOp identifies one submission-queue operation.
type RingOp int

// Ring operations.
const (
	// OpIOLRead is IOL_read: up to N bytes from FD as an aggregate,
	// advancing the cursor. Stream reads coalesce: every delivery that is
	// ready by the time the op executes folds into one completion, up to N.
	OpIOLRead RingOp = iota
	// OpIOLWrite is IOL_write: Agg to FD by reference. Ownership of Agg
	// transfers to the ring at Prep, like io_uring's fixed buffers; on
	// error the ring releases it. The completion's Res is Agg's length.
	OpIOLWrite
	// OpReadPOSIX is read(2): fill Buf from FD, copy charged.
	OpReadPOSIX
	// OpWritePOSIX is write(2): copy Buf to FD.
	OpWritePOSIX
	// OpSpliceAt moves N bytes from SrcFD at Off to FD in-kernel
	// (sendfile shape), preserving the splice path's zero-copy pin.
	OpSpliceAt
	// OpAccept accepts one connection from listener FD; the completion's
	// Res is the new socket fd.
	OpAccept
	// OpCork is setsockopt(TCP_CORK): segment-gathering control ordered
	// with the write stream it brackets, so cork → writes → uncork
	// survives in a single submission.
	OpCork
)

func (op RingOp) String() string {
	switch op {
	case OpIOLRead:
		return "IOL_read"
	case OpIOLWrite:
		return "IOL_write"
	case OpReadPOSIX:
		return "ReadPOSIX"
	case OpWritePOSIX:
		return "WritePOSIX"
	case OpSpliceAt:
		return "SpliceAt"
	case OpAccept:
		return "Accept"
	case OpCork:
		return "Cork"
	}
	return "unknown"
}

// SQE is one submission-queue entry. User is opaque to the kernel and
// returned verbatim in the completion (io_uring's user_data), so callers
// route results without a table of their own.
type SQE struct {
	Op    RingOp
	FD    int
	SrcFD int   // OpSpliceAt source
	Off   int64 // OpSpliceAt offset
	N     int64
	// Need, on reads, parks the op until at least Need bytes have
	// coalesced (the MSG_WAITALL shape; EOF still completes short). Zero
	// keeps the one-delivery-plus-whatever-is-ready default.
	Need int64
	Agg  *core.Agg // OpIOLWrite payload
	Buf  []byte    // OpReadPOSIX destination / OpWritePOSIX source
	On   bool      // OpCork
	User any
}

// CQE is one completion-queue entry: the op's results exactly as the
// direct call would have returned them, with its entry's Op and User.
type CQE struct {
	Op   RingOp
	User any
	Res  int64     // bytes moved, or the new fd for OpAccept
	Agg  *core.Agg // OpIOLRead result, caller-owned
	Err  error
}

// RingDesc is the submission ring. Ops against the same descriptor and
// direction execute in submission order (reads among reads, writes among
// writes); ops on different fds or directions proceed independently, so an
// outstanding blocked read never wedges the writes behind it — the
// head-of-line split a full-duplex framed channel needs.
type RingDesc struct {
	m  *Machine
	pr *Process

	staged  []SQE          // prepped, awaiting Submit
	queues  map[int][]*SQE // per (fd, direction) FIFO awaiting a worker
	working map[int]bool   // a worker proc is draining this key
	cq      []CQE
	reapers sim.WaitQueue
	notify  func()
	closed  bool

	submitted int64
	completed int64
}

// NewRingDesc creates a submission ring over pr's descriptor table.
// Install it with Process.Install; its fd is Pollable (readable when
// completions await Reap), so one readiness loop can watch sockets and its
// ring together.
func NewRingDesc(m *Machine, pr *Process) *RingDesc {
	return &RingDesc{
		m:       m,
		pr:      pr,
		queues:  make(map[int][]*SQE),
		working: make(map[int]bool),
	}
}

// opKey maps an SQE to its ordering domain: (fd, direction). Reads order
// among reads on the same fd; writes (and the cork toggles and splices
// that bracket them) order among writes; accepts order among accepts.
func opKey(sqe *SQE) int {
	switch sqe.Op {
	case OpIOLRead, OpReadPOSIX, OpAccept:
		return sqe.FD * 2
	default:
		return sqe.FD*2 + 1
	}
}

// Prep stages one entry for the next Submit. Staging is free: no syscall
// is charged until Submit. Ownership of an OpIOLWrite payload passes to
// the ring here.
func (r *RingDesc) Prep(sqe SQE) { r.staged = append(r.staged, sqe) }

// Staged reports how many entries await Submit.
func (r *RingDesc) Staged() int { return len(r.staged) }

// Submit charges exactly one syscall for every staged entry and dispatches
// them to their ordering domains' worker processes. The entries' fds are
// resolved at execution time, not submission time — an fd closed before
// its op runs completes with ErrBadFD, matching io_uring. Returns
// the number of ops submitted. Submitting nothing still charges the
// syscall that was made — don't call it idly.
func (r *RingDesc) Submit(p *sim.Proc) int {
	r.m.syscall(p)
	sqes := r.staged
	r.staged = nil
	for i := range sqes {
		sqe := &sqes[i]
		if r.closed {
			r.finish(CQE{Op: sqe.Op, User: sqe.User, Err: ErrClosed}, sqe.Agg)
			continue
		}
		r.submitted++
		key := opKey(sqe)
		r.queues[key] = append(r.queues[key], sqe)
		if !r.working[key] {
			r.working[key] = true
			r.m.Eng.Go("ring-wq", func(wp *sim.Proc) {
				r.runWorker(wp, key)
			})
		}
	}
	return len(sqes)
}

// runWorker drains one (fd, direction) queue and exits when it runs dry —
// workers are ephemeral, spawned per active domain like io-wq threads.
func (r *RingDesc) runWorker(p *sim.Proc, key int) {
	for {
		q := r.queues[key]
		if len(q) == 0 {
			delete(r.working, key)
			return
		}
		sqe := q[0]
		r.queues[key] = q[1:]
		r.finish(r.execute(p, sqe), nil)
	}
}

// finish appends a completion, wakes reapers and pollers. failed, if
// non-nil, is an unconsumed write payload to release.
func (r *RingDesc) finish(cqe CQE, failed *core.Agg) {
	if failed != nil {
		failed.Release()
	}
	r.cq = append(r.cq, cqe)
	r.completed++
	r.reapers.Wake(-1)
	if r.notify != nil {
		r.notify()
	}
}

// execute runs one op on worker p, resolving the fd now (close-before-reap
// semantics). Data costs are charged here, to the machine, exactly as the
// direct entry point would have charged them — minus the kernel crossing.
func (r *RingDesc) execute(p *sim.Proc, sqe *SQE) CQE {
	cqe := CQE{Op: sqe.Op, User: sqe.User}
	switch sqe.Op {
	case OpIOLRead:
		rd, err := descAs[Reader](r.pr, sqe.FD)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		a, err := rd.ReadAgg(p, r.pr, sqe.N)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		// Receive coalescing: fold every delivery that is already ready
		// into this completion, up to N. A 16 KB response arriving as a
		// dozen MSS segments becomes one completion instead of a dozen
		// read syscalls — the receive-side half of the ring's economy.
		// Below Need bytes the op parks for more instead of completing
		// short (the MSG_WAITALL shape); EOF still completes short.
		if rr, ok := rd.(readyReporter); ok {
			for int64(a.Len()) < sqe.N {
				if int64(a.Len()) >= sqe.Need && rr.PollReady()&Readable == 0 {
					break
				}
				b, err := rd.ReadAgg(p, r.pr, sqe.N-int64(a.Len()))
				if err != nil || b == nil {
					break // EOF or teardown surfaces on the next op
				}
				a.Concat(b)
				b.Release()
			}
		}
		cqe.Agg, cqe.Res = a, int64(a.Len())
	case OpIOLWrite:
		n := int64(sqe.Agg.Len())
		w, err := descAs[Writer](r.pr, sqe.FD)
		if err == nil {
			err = w.WriteAgg(p, r.pr, sqe.Agg)
		}
		if err != nil {
			sqe.Agg.Release() // ownership came to the ring at Prep
			cqe.Err = err
			return cqe
		}
		cqe.Res = n
	case OpReadPOSIX:
		rd, err := descAs[Reader](r.pr, sqe.FD)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		n, err := rd.ReadCopy(p, r.pr, sqe.Buf)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		// Coalesce exactly like the aggregate path, Need included.
		if rr, ok := rd.(readyReporter); ok {
			for n < len(sqe.Buf) {
				if int64(n) >= sqe.Need && rr.PollReady()&Readable == 0 {
					break
				}
				more, err := rd.ReadCopy(p, r.pr, sqe.Buf[n:])
				if err != nil || more == 0 {
					break
				}
				n += more
			}
		}
		cqe.Res = int64(n)
	case OpWritePOSIX:
		w, err := descAs[Writer](r.pr, sqe.FD)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		n, err := w.WriteCopy(p, r.pr, sqe.Buf)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		cqe.Res = int64(n)
	case OpSpliceAt:
		n, err := r.m.spliceAt(p, r.pr, sqe.FD, sqe.SrcFD, sqe.Off, sqe.N)
		cqe.Res, cqe.Err = n, err
	case OpAccept:
		ld, err := descAs[*listenDesc](r.pr, sqe.FD)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		conn := ld.lst.Accept(p)
		if conn == nil {
			cqe.Err = ErrClosed
			return cqe
		}
		cqe.Res = int64(r.pr.Install(&sockDesc{m: r.m, ep: conn.ServerEnd()}))
	case OpCork:
		sd, err := descAs[*sockDesc](r.pr, sqe.FD)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		sd.ep.SetCork(sqe.On)
	default:
		cqe.Err = ErrNotSupported
	}
	return cqe
}

// Reap charges exactly one syscall and returns every queued completion,
// blocking until at least min are available. If fewer than min ops are in
// flight, it returns what exists rather than parking forever.
func (r *RingDesc) Reap(p *sim.Proc, min int) []CQE {
	r.m.syscall(p)
	for len(r.cq) < min && r.inflight() > 0 {
		r.reapers.Wait(p)
	}
	out := r.cq
	r.cq = nil
	return out
}

// inflight reports submitted ops not yet completed.
func (r *RingDesc) inflight() int { return int(r.submitted - r.completed) }

// Close marks the ring closed: later submissions complete with ErrClosed.
// Already-queued ops run to completion (a closing application should drain
// with Reap first); uncollected completions release their aggregates.
func (r *RingDesc) Close(*sim.Proc) error {
	r.closed = true
	for _, cqe := range r.cq {
		if cqe.Agg != nil {
			cqe.Agg.Release()
		}
	}
	r.cq = nil
	return nil
}

// PollReady implements Pollable: readable when completions await Reap.
func (r *RingDesc) PollReady() Interest {
	if len(r.cq) > 0 {
		return Readable
	}
	return 0
}

// SetPollNotify implements Pollable: fn fires at every completion.
func (r *RingDesc) SetPollNotify(fn func()) { r.notify = fn }
