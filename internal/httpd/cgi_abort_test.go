package httpd

import (
	"testing"
	"time"

	"iolite/internal/sim"
)

// TestCGIWorkerPipeErrorCountsAborted breaks the CGI worker transport out
// from under an in-flight request: the worker's channel closes
// mid-response, and its handler's later response-pipe write error (which
// the old ad-hoc worker loop dropped on the floor) is counted, while the
// request surfaces through the fcgi mux as a failed request and lands in
// the server's aborted stat, with no bytes counted.
func TestCGIWorkerPipeErrorCountsAborted(t *testing.T) {
	for _, kind := range []Kind{FlashLite, Flash} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBed(kind, true)

			var st ClientStats
			b.eng.Go("client", func(p *sim.Proc) {
				cfg := b.clientCfg(false, nil)
				sent := false
				RunClient(p, cfg, func() (string, bool) {
					if sent {
						return "", false
					}
					sent = true
					return CGIDocPath(1 << 20), true // big doc: response is in flight a while
				}, &st)
			})
			b.eng.Go("breaker", func(p *sim.Proc) {
				// Let the request reach a worker and its handler start (the
				// event loop's readiness syscalls shift arrival by a few
				// microseconds past the old 500µs mark), then close the
				// workers' channels mid-response — the 1 MB document keeps
				// the response in flight for several milliseconds.
				p.Sleep(1 * time.Millisecond)
				for _, w := range b.srv.cgi.pool.Workers() {
					w.Conn().Close(p)
				}
			})
			b.eng.Run()

			ss := b.srv.Stats()
			reqs, body, total, aborted := ss.Requests, ss.BodyBytes, ss.TotalBytes, ss.Aborted
			if reqs != 1 || aborted != 1 {
				t.Fatalf("requests=%d aborted=%d, want 1/1", reqs, aborted)
			}
			if body != 0 || total != 0 {
				t.Fatalf("aborted CGI response still counted bytes: body=%d total=%d", body, total)
			}
			if st.Errors == 0 {
				t.Error("client saw no error for the aborted response")
			}
			// The worker-side EPIPE is recorded on its connection, not
			// silently dropped.
			if _, failures, writeErrs := b.srv.cgi.pool.Stats(); failures != 1 || writeErrs == 0 {
				t.Errorf("pool failures=%d writeErrs=%d, want 1/≥1", failures, writeErrs)
			}
		})
	}
}
