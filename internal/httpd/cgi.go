package httpd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"iolite/internal/core"
	"iolite/internal/fcgi"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// cgiRequestWork is the worker's per-request processing beyond moving data.
const cgiRequestWork = 20 * time.Microsecond

// The CGI tier's shape. The paper's measured servers dispatched one
// request per worker at a time (§5.3), so Figs 5-6 measure exactly that:
// 8 persistent workers at mux depth 1. The multiplexed protocol (depth
// > 1) is FigFCGI's subject, and worker placement is FigFCGINet's.
const (
	cgiWorkers = 8
	cgiDepth   = 1
)

// cgiPool serves dynamic documents through the internal/fcgi subsystem: a
// FastCGI-style pool of persistent worker processes (§5.3 — FastCGI
// amortizes fork/exec across requests; the remaining costs are framing
// and, on conventional servers, pipe copies). Each worker is reached over
// its own pipe pair, and on IO-Lite servers the response payload crosses
// both the pipe and the socket by reference.
type cgiPool struct {
	s    *Server
	pool *fcgi.WorkerPool

	// Per-worker document caches ("caching CGI programs", §3.10): the
	// IO-Lite worker keeps sealed aggregates in its own ACL'd pool so
	// repeat requests reuse the same immutable buffers (and downstream
	// TCP checksums stay cached); the baseline worker keeps plain bytes
	// in its address space.
	docsAgg *fcgi.AggCache
	docsRaw *fcgi.RawCache
}

func newCGIPool(s *Server) *cgiPool {
	cp := &cgiPool{
		s:       s,
		docsAgg: fcgi.NewAggCache(),
		docsRaw: fcgi.NewRawCache(),
	}
	// A nil Transport selects the pool's default pipe transport.
	cp.pool = fcgi.NewWorkerPool(fcgi.PoolConfig{
		Machine: s.m,
		Server:  s.proc,
		Workers: cgiWorkers,
		Depth:   cgiDepth,
		Ref:     s.cfg.Kind.Lite(),
		Respawn: true,
		Name:    "cgi",
		Obs:     s.cfg.Obs,
		Handler: cp.handle,
		OnRetire: func(w *fcgi.Worker) {
			cp.docsAgg.Drop(w)
			cp.docsRaw.Drop(w)
		},
	})
	return cp
}

// handle is the CGI application run inside each worker: generate (or
// reuse) the document for the requested size and stream it back as
// STDOUT records. A record write error is the simulated EPIPE of a
// server that hung up; the handler stops the response and the error is
// counted on the worker's connection, which Server.Stats folds into the
// aborted stat — it is never silently dropped.
func (cp *cgiPool) handle(p *sim.Proc, w *fcgi.Worker, req *fcgi.ServerRequest) {
	size, ok := parseCGISize(string(req.Params))
	if !ok {
		size = 1
	}
	// The per-request work runs inside the worker process.
	w.M.Host.Use(p, cgiRequestWork)

	if cp.s.cfg.Kind.Lite() {
		agg := cp.docsAgg.GetOrPack(p, w, size, func() []byte { return cgiDoc(size) })
		req.Reply(p, agg, 0)
		return
	}
	raw := cp.docsRaw.GetOrGen(w, size, func() []byte { return cgiDoc(size) })
	req.ReplyBytes(p, raw, 0)
}

// CGIDocPath names a dynamic document of n bytes.
func CGIDocPath(n int64) string { return fmt.Sprintf("/cgi/%d", n) }

// parseCGISize extracts the document size from a CGI path.
func parseCGISize(path string) (int64, bool) {
	if !strings.HasPrefix(path, "/cgi/") {
		return 0, false
	}
	n, err := strconv.ParseInt(path[len("/cgi/"):], 10, 64)
	return n, err == nil && n > 0
}

// cgiDoc deterministically generates document content for a size.
func cgiDoc(n int64) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*11 + 3)
	}
	return d
}

// serveCGI forwards the request through the fcgi pool and relays the
// response document to the client on connection descriptor cfd. It
// reports false when the response could not be fully delivered — a
// worker-side failure (the mux surfaces broken pipes as errors) or a
// client write error.
func (s *Server) serveCGI(p *sim.Proc, cfd int, path string, sp *obs.Span) bool {
	// The span rides along: the mux marks the dispatch and service phases
	// and the BEGIN record carries the trace id to the worker.
	resp, err := s.cgi.pool.Do(p, fcgi.Request{Params: []byte(path), Span: sp})
	sp.Enter(p.Now(), obs.PhaseSend)
	if err != nil {
		return false
	}

	if s.cfg.Kind.Lite() {
		// The worker's sealed buffers arrived by reference; prepend a
		// freshly generated response header and IOL_write the aggregate
		// to the socket — the same call a file or pipe target would take.
		body := resp.Body
		if body == nil {
			body = core.NewAgg()
		}
		n := int64(body.Len())
		hdr := FormatResponseHeader(s.cfg.Kind.String(), n)
		out := core.PackBytes(p, s.proc.Pool, hdr)
		out.Concat(body)
		body.Release()
		if err := s.m.IOLWrite(p, s.proc, cfd, out); err != nil {
			out.Release()
			return false
		}
		s.bytesBody += n
		s.bytesTotal += n + int64(len(hdr))
		return true
	}

	// Baseline: the document crossed the pipe by copy; send it with the
	// conventional copying writes, corked so the header and document
	// gather into full segments.
	body := resp.Bytes
	hdr := FormatResponseHeader(s.cfg.Kind.String(), int64(len(body)))
	s.cork(p, cfd, true)
	if _, err := s.m.WritePOSIX(p, s.proc, cfd, hdr); err != nil {
		return false
	}
	if _, err := s.m.WritePOSIX(p, s.proc, cfd, body); err != nil {
		return false
	}
	s.cork(p, cfd, false)
	s.bytesBody += int64(len(body))
	s.bytesTotal += int64(len(body) + len(hdr))
	return true
}
