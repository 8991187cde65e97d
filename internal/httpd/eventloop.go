package httpd

import (
	"errors"

	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The Flash-family servers (Flash, Flash-Lite, FL-splice) run as one
// readiness-driven event loop per server — Flash's actual architecture: a
// single process multiplexing every connection through a readiness
// primitive, with response I/O staged through the submission ring. One
// pass of the loop services every ready descriptor and then flushes all
// staged response ops in a single charged Submit; completions come back
// through the ring's own fd, watched like any connection. Blocking disk
// work never enters the loop: non-resident documents are handed to helper
// processes (Flash's AMPED shape — the event loop serves from memory,
// helpers absorb the disk waits concurrently). Only Apache
// keeps a process per connection — that overhead is its architectural
// identity, not an artifact to optimize away.
//
// Level-triggered readiness demands a suppression discipline: a
// connection is unwatched while a response is in flight (or a CGI helper
// owns it) and re-watched on completion, so the loop never spins on a
// condition it is not ready to consume. The listener is drained to
// ErrAgain on every acceptable event for the same reason.

// connState is one connection's place in the event loop's state machine.
type connState struct {
	fd      int
	pending []byte // accumulated, not-yet-parsed request bytes
	buf     []byte // conventional receive buffer, reused across requests

	busy      bool // response in flight (ring ops out, or a CGI helper owns it)
	inflight  int  // ring ops outstanding for the current response
	failed    bool
	keepalive bool

	// Pending byte-counter credit, applied when the response completes.
	creditBody, creditTotal int64

	// FL-splice fallback state: the file to re-send by read+write if the
	// connection turns out not to support splice.
	fbFD   int
	fbSize int64

	// span is the in-flight request's trace span, opened when the first
	// bytes of a new request arrive and closed (or abandoned) by
	// finishConn/closeConn. Nil while idle and when tracing is off.
	span *obs.Span
}

// eventLoop is the Flash-family server core.
func (s *Server) eventLoop(p *sim.Proc) {
	// The listener must not block the loop: accept drains to ErrAgain.
	_ = s.m.SetNonblock(p, s.proc, s.lfd, true)

	s.po = kernel.NewReadyDesc(s.m, s.proc)
	s.proc.Install(s.po)
	s.ring = kernel.NewRingDesc(s.m, s.proc)
	s.ringFD = s.proc.Install(s.ring)
	s.conns = make(map[int]*connState)
	if err := s.po.Watch(s.lfd, kernel.Acceptable); err != nil {
		panic("httpd: listener not pollable: " + err.Error())
	}
	if err := s.po.Watch(s.ringFD, kernel.Readable); err != nil {
		panic("httpd: ring not pollable: " + err.Error())
	}

	for {
		if s.lclosed && len(s.conns) == 0 {
			return
		}
		evs := s.po.Wait(p)
		if evs == nil { // Wait returns nil only when nothing is watched
			return
		}
		for _, ev := range evs {
			switch ev.FD {
			case s.lfd:
				s.acceptReady(p)
			case s.ringFD:
				s.reapReady(p)
			default:
				c := s.conns[ev.FD]
				if c == nil || c.busy {
					continue // closed or claimed earlier in this pass
				}
				s.connReadable(p, c)
			}
		}
		// One charged Submit flushes every response op staged during this
		// pass, regardless of how many connections contributed.
		if s.ring.Staged() > 0 {
			s.ring.Submit(p)
		}
	}
}

// acceptReady drains the listener backlog.
func (s *Server) acceptReady(p *sim.Proc) {
	for {
		cfd, err := s.m.Accept(p, s.proc, s.lfd)
		if errors.Is(err, kernel.ErrAgain) {
			return
		}
		if err != nil {
			// Listener closed: stop watching; the loop winds down once
			// the remaining connections finish.
			s.po.Unwatch(s.lfd)
			s.lclosed = true
			return
		}
		c := &connState{fd: cfd}
		s.conns[cfd] = c
		_ = s.po.Watch(cfd, kernel.Readable)
	}
}

// connReadable consumes one readiness event: one read (guaranteed not to
// park — the poller said so and nobody else reads this fd), then as much
// request processing as the bytes allow.
func (s *Server) connReadable(p *sim.Proc, c *connState) {
	if s.cfg.Obs != nil && c.span == nil {
		// First bytes of a new request: open its span. The loop proc
		// wears the span's binding for this connection's slice of the
		// pass, so the read and parse charges bin into the parse phase.
		c.span = s.cfg.Obs.Start(s.cfg.Kind.String(), p.Now())
		c.span.Enter(p.Now(), obs.PhaseParse)
	}
	p.SetAttrib(c.span)
	defer p.SetAttrib(nil)
	var err error
	c.pending, err = ReadRequest(p, s.m, s.proc, c.fd, s.cfg.Kind.Lite(), c.pending, &c.buf)
	if err != nil {
		s.closeConn(p, c)
		return
	}
	s.tryServe(p, c)
}

// tryServe parses the accumulated bytes and, on a complete request, claims
// the connection and stages (or hands off) its response.
func (s *Server) tryServe(p *sim.Proc, c *connState) {
	path, keepalive, ok := ParseRequest(c.pending)
	if !ok {
		return // keep watching; more bytes will come
	}
	c.pending = nil
	s.m.Host.Use(p, s.requestWork())
	s.requests++
	c.busy = true
	c.keepalive = keepalive
	c.failed = false
	c.creditBody, c.creditTotal = 0, 0
	s.po.Unwatch(c.fd) // suppress readability while the response is in flight

	if s.cfg.CGI {
		// CGI rides a helper process: Do blocks on the worker round trip,
		// which must not stall the loop. The helper writes the response
		// directly (its writes may park harmlessly) and re-arms the
		// connection when done. The helper proc wears the span's binding
		// so its charges bin into the span's open phase.
		sp := c.span
		s.m.Eng.Go("httpd.cgihelper", func(hp *sim.Proc) {
			hp.SetAttrib(sp)
			served := s.serveCGI(hp, c.fd, path, sp)
			hp.SetAttrib(nil)
			s.finishConn(hp, c, served)
		})
		return
	}
	if s.staticResident(path) {
		s.stageStatic(p, c, path)
		return
	}
	// AMPED: the document needs disk (or a first FS open). Blocking disk
	// work must not serialize behind the loop — Flash's helper processes
	// exist precisely for this. The helper serves by the direct path
	// (its disk reads and writes park harmlessly, concurrently with other
	// helpers) and re-arms the connection when done; serveStatic applies
	// the byte counters itself, so the connection's credits stay zero.
	sp := c.span
	s.m.Eng.Go("httpd.diskhelper", func(hp *sim.Proc) {
		hp.SetAttrib(sp)
		served := s.serveStatic(hp, c.fd, path, sp)
		hp.SetAttrib(nil)
		s.finishConn(hp, c, served)
	})
}

// staticResident reports, without charging, whether path can be served
// entirely from memory: the open-FD cache knows the file and the document
// is resident in the kind's cache (unified file cache for the IO-Lite
// kinds, VM mmap cache for Flash). Anything else needs disk and belongs
// on a helper process.
func (s *Server) staticResident(path string) bool {
	e, ok := s.openFDs[path]
	if !ok {
		return false // first open pays FS metadata work
	}
	if s.cfg.Kind.Lite() {
		return s.m.FileCache.Contains(cache.Key{File: e.f.ID, Off: 0, Len: e.f.Size()})
	}
	return s.m.Mmaps.Resident(e.f.ID)
}

// stageStatic stages one static response on the ring. The caller (the
// loop pass, or a completion handler re-serving a pipelined request)
// flushes with Submit.
func (s *Server) stageStatic(p *sim.Proc, c *connState, path string) {
	c.span.Enter(p.Now(), obs.PhaseCacheLookup)
	e, ok := s.openCached(p, path)
	c.span.Enter(p.Now(), obs.PhaseSend)
	if !ok {
		s.stage(c, kernel.SQE{Op: kernel.OpWritePOSIX, FD: c.fd, Buf: []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")})
		return
	}
	f := e.f
	hdr := FormatResponseHeader(s.cfg.Kind.String(), f.Size())
	c.creditBody = f.Size()
	c.creditTotal = f.Size() + int64(len(hdr))

	switch s.cfg.Kind {
	case FlashLite:
		// The positional read stays inline: cached documents never park,
		// and the aggregate is needed now to concatenate the header. The
		// socket write — the op that can block — goes through the ring.
		body, err := s.m.IOLReadAt(p, s.proc, e.fd, 0, f.Size())
		if err != nil {
			body = core.NewAgg()
		}
		resp := core.PackBytes(p, s.proc.Pool, hdr)
		resp.Concat(body)
		body.Release()
		s.stage(c, kernel.SQE{Op: kernel.OpIOLWrite, FD: c.fd, Agg: resp})
	case FlashLiteSplice:
		// Cork, header, splice, uncork: four ops, one submission, executed
		// in order on the connection's write domain.
		c.fbFD, c.fbSize = e.fd, f.Size()
		s.stage(c, kernel.SQE{Op: kernel.OpCork, FD: c.fd, On: true})
		s.stage(c, kernel.SQE{Op: kernel.OpIOLWrite, FD: c.fd, Agg: core.PackBytes(p, s.proc.Pool, hdr)})
		s.stage(c, kernel.SQE{Op: kernel.OpSpliceAt, FD: c.fd, SrcFD: e.fd, N: f.Size()})
		s.stage(c, kernel.SQE{Op: kernel.OpCork, FD: c.fd})
	case Flash:
		mp := s.m.Mmap(p, s.proc, f)
		s.stage(c, kernel.SQE{Op: kernel.OpCork, FD: c.fd, On: true})
		s.stage(c, kernel.SQE{Op: kernel.OpWritePOSIX, FD: c.fd, Buf: hdr})
		s.stage(c, kernel.SQE{Op: kernel.OpWritePOSIX, FD: c.fd, Buf: mp.Bytes(0, f.Size())})
		s.stage(c, kernel.SQE{Op: kernel.OpCork, FD: c.fd})
	}
}

// stage stages one of c's response ops; its completion carries c back.
func (s *Server) stage(c *connState, sqe kernel.SQE) {
	sqe.User = c
	s.ring.Prep(sqe)
	c.inflight++
}

// reapReady collects completions (the poller said the ring is readable, so
// Reap returns without parking) and advances each touched connection. A
// failed response op aborts its response, with two exceptions.
func (s *Server) reapReady(p *sim.Proc) {
	for _, cqe := range s.ring.Reap(p, 1) {
		c := cqe.User.(*connState)
		c.inflight--
		switch {
		case cqe.Err == nil:
		case cqe.Op == kernel.OpCork:
			// Cork is advisory, exactly as on the direct path.
		case cqe.Op == kernel.OpSpliceAt && errors.Is(cqe.Err, kernel.ErrNotSupported):
			// The connection can't splice (a conventional client
			// endpoint): re-send the document by the IOL_read + IOL_write
			// pair the splice shortcuts. The header already went out.
			body, rerr := s.m.IOLReadAt(p, s.proc, c.fbFD, 0, c.fbSize)
			if rerr != nil {
				body = core.NewAgg()
			}
			s.stage(c, kernel.SQE{Op: kernel.OpIOLWrite, FD: c.fd, Agg: body})
		default:
			c.failed = true
		}
		if c.inflight == 0 {
			s.finishConn(p, c, !c.failed)
		}
	}
	if s.ring.Staged() > 0 {
		// Fallback ops staged above flush with the pass's Submit; if the
		// loop pass already flushed, the next pass catches them — but a
		// completion handler is always inside a pass, so flush there.
		s.ring.Submit(p)
	}
}

// finishConn completes one response: apply byte credits, then close or
// re-arm. Runs from the loop (static path) or a CGI helper (whose own
// serveCGI already applied the counters — its credits are zero).
func (s *Server) finishConn(p *sim.Proc, c *connState, served bool) {
	if !served {
		s.aborted++
		s.closeConn(p, c)
		return
	}
	c.span.Finish(p.Now())
	c.span = nil
	s.bytesBody += c.creditBody
	s.bytesTotal += c.creditTotal
	if !c.keepalive {
		s.closeConn(p, c)
		return
	}
	c.busy = false
	// Re-watch: if the next request's bytes are already queued, Watch wakes
	// the parked loop immediately (level-triggered).
	_ = s.po.Watch(c.fd, kernel.Readable)
}

// closeConn tears a connection out of the loop.
func (s *Server) closeConn(p *sim.Proc, c *connState) {
	c.span.Abandon() // a span still open here belongs to a dead request
	c.span = nil
	s.po.Unwatch(c.fd)
	delete(s.conns, c.fd)
	s.m.Close(p, s.proc, c.fd)
}
