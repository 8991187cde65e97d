package fcgi

import "iolite/internal/sim"

// Payload materializes the response body regardless of mode.
func (r *Response) Payload() []byte {
	if r.Body != nil {
		return r.Body.Materialize()
	}
	return r.Bytes
}

// records reports total records moved over all current connections (both
// directions, both ends).
func (wp *WorkerPool) records() int64 {
	var n int64
	for _, w := range wp.workers {
		for _, c := range []*Conn{w.conn, w.mux.c} {
			in, out, _ := c.Stats()
			n += in + out
		}
	}
	return n
}

// closePool tears down every worker connection with supervision off:
// workers drain to EOF and exit, and in-flight requests fail with
// ErrBroken. It must run on a simulated proc.
func closePool(p *sim.Proc, wp *WorkerPool) {
	for _, w := range wp.workers {
		w.mux.onFail = nil
		w.mux.Close(p)
	}
}
