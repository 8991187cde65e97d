package fcgi

import (
	"errors"
	"fmt"

	"iolite/internal/kernel"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// PoolConfig wires a worker pool.
type PoolConfig struct {
	Machine *kernel.Machine
	// Server is the process that issues requests (it holds the
	// server-side end of every worker's channel).
	Server *kernel.Process
	// Workers is the number of persistent worker processes (default 4).
	Workers int
	// Depth is each worker's mux depth — the in-flight request cap per
	// connection (default 8). Total pool concurrency is Workers×Depth.
	Depth int
	// Ref requests reference-mode response payloads: STDOUT payloads are
	// sealed aggregates passed by reference, zero copy charge. Whether
	// the request is honored end to end is the transport's capability —
	// a remote transport degrades payloads to the single machine-boundary
	// copy. The request direction is always copy mode (requests are
	// tiny).
	Ref bool
	// Transport supplies worker channels. Nil selects the in-machine
	// pipe transport built from Machine/Server/Ref. A non-nil transport
	// carries its own payload-mode configuration; keep its ref setting
	// consistent with Ref so handlers and channels agree.
	Transport Transport
	// Ring routes both ends of every worker channel through submission
	// rings (Conn.EnableRing): record writes from the mux's concurrent
	// requests batch into one Submit+Reap cycle, and reads refill with
	// coalesced ring reads, so a depth-D channel under load pays O(1)
	// syscall charges per cycle instead of one per record and one per
	// delivery.
	Ring bool
	// Respawn enables worker supervision: when a worker's channel
	// breaks, the pool re-establishes it over the transport with a fresh
	// worker process and routes new requests to the replacement.
	// Requests in flight on the dead worker still fail unless Replay
	// applies — supervision restores capacity.
	Respawn bool
	// Replay re-dispatches an in-flight request to another live worker
	// after its worker died (ErrWorkerDied) — but only requests marked
	// Idempotent: a dead worker may have partially executed the work, so
	// anything else still fails. Failed attempts' partial transfer work is
	// the price of recovery.
	Replay bool
	// OnRetire, when set with Respawn, runs for each worker the pool
	// retires (its channel broke and a replacement took its slot). It is
	// the hook per-worker handler state uses to release the dead
	// worker's cached resources — e.g. AggCache.Drop, or sealed
	// documents stay pinned in the dead process's pool forever.
	OnRetire func(w *Worker)
	// TypicalResponse is the expected response payload per request, used
	// to autotune socket-transport send windows (depth × typical record;
	// see AutoWindow). 0 selects TypicalRecordBytes.
	TypicalResponse int
	// Name prefixes worker process names (default "fcgi").
	Name string
	// Obs, when set, lands each traced request's worker-side service
	// interval in the client's span (resolved by the trace id the BEGIN
	// record carried over) and binds the handler proc so its charges bin
	// to the worker phase.
	Obs *obs.Collector
	// QoS, when set, enables multi-tenant admission control and
	// tenant-aware routing for requests that carry a Tenant (see
	// QoSConfig; empty-tenant requests bypass it).
	QoS *QoSConfig
	// Handler serves each request; it receives the owning Worker so
	// per-worker state (document caches in the worker's own pool) is a
	// field access away.
	Handler func(p *sim.Proc, w *Worker, req *ServerRequest)
}

// Worker is one persistent worker process: its own protection domain and
// allocation pool (the per-worker ACL isolation of §3.10 — a worker's
// buffers are readable only by domains its channel transfers granted),
// one transport channel to the server, and the server-side mux over it.
type Worker struct {
	ID int
	// Gen counts respawns of this worker slot (0 = the original).
	Gen int
	// M is the machine the worker process runs on; on remote transports
	// it differs from the pool's server machine.
	M    *kernel.Machine
	Proc *kernel.Process

	conn     *Conn // worker side
	mux      *Mux  // server side
	inflight int
	// perTenant tracks in-flight requests by tenant (tenant-aware
	// routing); nil until the first tenant-tagged request.
	perTenant map[string]int

	// Retirement state: active counts handlers currently running in the
	// worker, serveDone marks its serve loop exited, retire holds the
	// pool's retire hook once supervision has replaced the worker (it
	// totals the worker's late write errors and runs OnRetire).
	active    int
	serveDone bool
	retire    func(*Worker)
}

// maybeRetire runs the pool's retire hook once the worker can no longer
// touch per-worker state: its serve loop has exited (no new handlers can
// be dispatched) and its last in-flight handler has returned. Firing any
// earlier would let a live handler repopulate caches the hook just
// dropped.
func (w *Worker) maybeRetire() {
	if w.retire == nil || !w.serveDone || w.active != 0 {
		return
	}
	fn := w.retire
	w.retire = nil
	fn(w)
}

// Conn returns the worker-side connection (its Stats carry the worker's
// write errors — responses that hit a closed channel).
func (w *Worker) Conn() *Conn { return w.conn }

// WorkerPool runs N persistent workers and multiplexes M ≫ N requests
// over their transport channels — the generalization of the one-request-
// per-worker CGI protocol the httpd server used to hand-roll. Do routes
// each request to the least-loaded live worker; it starts blocking only
// when every worker is at its mux depth, and a blocked request stays
// bound to the worker it picked until a slot there frees — unless that
// worker dies first, in which case the request is re-routed (it was
// never sent, so re-routing is safe even for non-idempotent work).
type WorkerPool struct {
	cfg       PoolConfig
	transport Transport
	workers   []*Worker
	rr        int

	requests int64
	failures int64
	reroutes int64
	respawns int64
	replays  int64
	// QoS admission state and shed meters (see qos.go).
	qosState  map[string]*tenantQoS
	sheds     int64
	throttles int64
	// deadWriteErrs totals the write errors of workers supervision has
	// replaced, so Stats stays monotonic across respawns without keeping
	// the dead channels (and through them the dead processes' pools)
	// reachable. A dead worker's count is added at the respawn, and the
	// EPIPEs its in-flight handlers hit afterwards once it quiesces.
	deadWriteErrs int64
}

// NewWorkerPool builds the workers, their transport channels, muxes, and
// serve loops. Channel wiring happens at setup time (uncharged), like all
// process plumbing in this repo.
func NewWorkerPool(cfg PoolConfig) *WorkerPool {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 8
	}
	if cfg.Name == "" {
		cfg.Name = "fcgi"
	}
	if cfg.Handler == nil {
		panic("fcgi: NewWorkerPool without Handler")
	}
	wp := &WorkerPool{cfg: cfg, transport: cfg.Transport}
	if wp.transport == nil {
		wp.transport = NewPipeTransport(cfg.Machine, cfg.Server, cfg.Ref)
	}
	// Socket transports size their channel send windows from the pool's
	// concurrency instead of a hardwired constant: a window-starved mux
	// trickles records into the transport in sub-MSS pieces.
	if tuner, ok := wp.transport.(WindowTuner); ok {
		tuner.TuneWindow(cfg.Depth, cfg.TypicalResponse)
	}
	for i := 0; i < cfg.Workers; i++ {
		wp.workers = append(wp.workers, wp.spawn(i, 0))
	}
	return wp
}

// spawn connects one worker channel over the transport and starts the
// worker's serve loop.
func (wp *WorkerPool) spawn(idx, gen int) *Worker {
	name := fmt.Sprintf("%s%d", wp.cfg.Name, idx)
	if gen > 0 {
		name = fmt.Sprintf("%s.g%d", name, gen)
	}
	ch := wp.transport.Connect(idx, name)
	if wp.cfg.Ring {
		ch.ServerConn.EnableRing()
		ch.WorkerConn.EnableRing()
	}
	w := &Worker{
		ID:   idx,
		Gen:  gen,
		M:    ch.WorkerM,
		Proc: ch.WorkerProc,
		conn: ch.WorkerConn,
		mux:  NewMux(ch.ServerConn, wp.cfg.Depth),
	}
	handler := wp.cfg.Handler
	if col := wp.cfg.Obs; col != nil {
		inner := handler
		handler = func(hp *sim.Proc, hw *Worker, req *ServerRequest) {
			sp := col.Lookup(req.TraceID)
			if sp == nil {
				inner(hp, hw, req)
				return
			}
			start := hp.Now()
			hp.SetAttrib(obs.Bound{Span: sp, Ph: obs.PhaseWorker})
			inner(hp, hw, req)
			hp.SetAttrib(nil)
			sp.AddRemote(hw.M.Host.Name, start, hp.Now())
		}
	}
	worker := w
	ch.WorkerM.Eng.Go(name, func(p *sim.Proc) {
		Serve(p, worker.conn, func(hp *sim.Proc, req *ServerRequest) {
			worker.active++
			handler(hp, worker, req)
			worker.active--
			worker.maybeRetire()
		})
		// The server hung up (or the stream corrupted): close the
		// worker's end so the mux reader drains to EOF and fails any
		// requests still in flight instead of hanging them.
		worker.conn.Close(p)
		worker.serveDone = true
		worker.maybeRetire()
	})
	if wp.cfg.Respawn {
		w.mux.OnFail(func(error) { wp.superviseRespawn(worker) })
	}
	return w
}

// superviseRespawn replaces a dead worker with a fresh process over a
// fresh transport channel. It runs on its own proc so the respawn's
// charged work (the replacement fork) doesn't ride whichever proc
// observed the failure.
func (wp *WorkerPool) superviseRespawn(dead *Worker) {
	// dead.M's engine is the one engine everything runs on; going through
	// it (not cfg.Machine, which a transport-configured pool may omit)
	// keeps respawn working for any wiring.
	dead.M.Eng.Go("fcgi.respawn", func(p *sim.Proc) {
		if wp.workers[dead.ID] != dead {
			return
		}
		// Tear the dead channel down from the server side too: a worker
		// still alive behind a broken mux (a protocol error, not a
		// crash) drains to EOF and exits instead of serving or blocking
		// forever, and the server-side fds are reclaimed.
		dead.mux.Close(p)
		dead.Proc.Exit() // the crashed process's memory goes back
		nw := wp.spawn(dead.ID, dead.Gen+1)
		wp.workers[dead.ID] = nw
		wp.respawns++
		_, _, counted := dead.conn.Stats()
		wp.deadWriteErrs += counted
		dead.retire = func(w *Worker) {
			_, _, we := w.conn.Stats()
			wp.deadWriteErrs += we - counted
			if wp.cfg.OnRetire != nil {
				wp.cfg.OnRetire(w)
			}
		}
		dead.maybeRetire() // fires now if the worker is already quiet
		// Recovery is not free: creating the replacement process is
		// charged like any fork (channel wiring stays setup-priced).
		nw.M.Fork(p)
	})
}

// Workers returns the pool's current workers (tests and per-worker
// state). Respawned slots hold fresh *Worker values.
func (wp *WorkerPool) Workers() []*Worker { return wp.workers }

// pick selects the live worker with the fewest in-flight requests,
// breaking ties round-robin so sequential loads still warm every worker
// over time. A tenant-tagged request compares the tenant's own in-flight
// count first, global load second: one tenant's burst spreads across
// workers (least-loaded within its share) instead of stacking behind
// itself on a single mux while the rest of the pool idles — and, dually,
// a heavy tenant can't make one worker's queue everybody's problem.
// Broken workers are skipped — their muxes fail requests instantly, so
// their inflight count sits at zero and strict least-loaded routing would
// funnel all traffic into the failure. Only when every worker is broken
// does pick hand one back, so Do fails fast rather than blocking.
func (wp *WorkerPool) pick(tenant string) *Worker {
	n := len(wp.workers)
	start := wp.rr % n
	wp.rr++
	var best *Worker
	for i := 0; i < n; i++ {
		w := wp.workers[(start+i)%n]
		if w.mux.Err() != nil {
			continue
		}
		if best == nil {
			best = w
			continue
		}
		if tenant != "" {
			wt, bt := w.tenantLoad(tenant), best.tenantLoad(tenant)
			if wt != bt {
				if wt < bt {
					best = w
				}
				continue
			}
		}
		if w.inflight < best.inflight {
			best = w
		}
	}
	if best == nil {
		return wp.workers[start]
	}
	return best
}

// Do issues one request through the least-loaded worker's mux, blocking
// when that worker is at depth. Ownership and error semantics are
// Mux.Do's, with two additions. A worker that dies between the routing
// decision and dispatch (the health check races the slot wait inside the
// mux) surfaces as ErrNotSent, and Do re-routes the request to another
// live worker instead of failing it — the routing decision is re-checked
// against the pool's current workers, which is also how requests reach a
// supervision-respawned replacement. With Replay enabled, an Idempotent
// request whose worker dies with it in flight (ErrWorkerDied) is
// re-dispatched rather than failed. Worker-death replays are not capped:
// each needs an actual worker death, supervision paces those, and
// surviving sustained kills is what the replay policy is for.
func (wp *WorkerPool) Do(p *sim.Proc, req Request) (*Response, error) {
	wp.requests++
	// QoS admission runs first: a shed request never touches routing or
	// mux slots.
	qosRelease, err := wp.admitQoS(p, &req)
	if err != nil {
		return nil, err
	}
	if qosRelease != nil {
		defer qosRelease()
	}
	replayable := wp.cfg.Replay && req.Idempotent
	for {
		w := wp.pick(req.Tenant)
		if w.mux.Err() != nil {
			// pick only returns a broken worker when every worker is
			// broken: fail fast.
			wp.failures++
			return nil, w.mux.Err()
		}
		w.inflight++
		w.addTenant(req.Tenant, 1)
		resp, err := w.mux.Do(p, req)
		w.addTenant(req.Tenant, -1)
		w.inflight--
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrNotSent) {
			// The worker died before any record of this request reached
			// it: re-route.
			wp.reroutes++
			continue
		}
		if replayable && errors.Is(err, ErrWorkerDied) {
			wp.replays++
			continue
		}
		wp.failures++
		return resp, err
	}
}

// Stats reports requests issued, requests failed, and worker-side write
// errors (a worker's response hit a closed channel — the EPIPE a server
// abort leaves behind). Write errors include replaced workers', so the
// count stays monotonic across supervision respawns.
func (wp *WorkerPool) Stats() (requests, failures, writeErrs int64) {
	writeErrs = wp.deadWriteErrs
	for _, w := range wp.workers {
		_, _, we := w.conn.Stats()
		writeErrs += we
	}
	return wp.requests, wp.failures, writeErrs
}

// InFlight reports requests currently dispatched across the pool's
// workers — the queue-depth signal obs samplers watch.
func (wp *WorkerPool) InFlight() int {
	n := 0
	for _, w := range wp.workers {
		n += w.inflight
	}
	return n
}

// Reroutes reports requests re-routed to another worker after their
// first-choice worker died pre-dispatch.
func (wp *WorkerPool) Reroutes() int64 { return wp.reroutes }

// Respawns reports workers replaced by supervision.
func (wp *WorkerPool) Respawns() int64 { return wp.respawns }

// Replays reports idempotent requests re-dispatched after their worker
// died with them in flight.
func (wp *WorkerPool) Replays() int64 { return wp.replays }
