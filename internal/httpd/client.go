package httpd

import (
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// ClientConfig describes one closed-loop HTTP client: it issues a request,
// waits for the complete response, and immediately issues the next (§5.1:
// "a client issues a new request as soon as a response is received").
type ClientConfig struct {
	Host     *netsim.Host
	Link     *netsim.Link
	Listener *netsim.Listener
	// RefServer must be true when the server is Flash-Lite (its sends pass
	// IO-Lite references).
	RefServer bool
	// Persistent selects HTTP/1.1 keep-alive: many requests per
	// connection (§5.2).
	Persistent bool
	// OnResponse, when set, receives each materialized response body for
	// verification (tests); nil skips materialization for speed.
	OnResponse func(path string, body []byte)
	// Lat, when set, observes each successful request's client-side
	// latency (request sent → response complete, in nanoseconds). LatFrom
	// gates the observations: requests issued before it — the warmup
	// window — are not recorded.
	Lat     *obs.Histogram
	LatFrom sim.Time
}

// ClientStats accumulates one client's results.
type ClientStats struct {
	Requests   int64
	BodyBytes  int64
	TotalBytes int64
	Errors     int64
}

// RunClient issues requests produced by next until next returns ok=false.
// next is called before each request and returns the path to fetch.
func RunClient(p *sim.Proc, cfg ClientConfig, next func() (path string, ok bool), stats *ClientStats) {
	var conn *netsim.Conn
	for {
		path, ok := next()
		if !ok {
			if conn != nil {
				conn.ClientEnd().Close(p)
			}
			return
		}
		if conn == nil {
			conn = netsim.Dial(p, cfg.Host, cfg.Link, cfg.Listener, netsim.ConnOpts{ServerRefMode: cfg.RefServer})
		}
		ep := conn.ClientEnd()
		start := p.Now()
		ep.Send(p, netsim.Payload{Data: FormatRequest(path, cfg.Persistent)}, nil)

		body, good := readResponse(p, ep, cfg.OnResponse != nil)
		if !good {
			stats.Errors++
			ep.Close(p)
			conn = nil
			continue
		}
		if cfg.Lat != nil && start >= cfg.LatFrom {
			cfg.Lat.Observe(int64(p.Now().Sub(start)))
		}
		stats.Requests++
		stats.BodyBytes += body.bodyLen
		stats.TotalBytes += body.totalLen
		if cfg.OnResponse != nil {
			cfg.OnResponse(path, body.body)
		}

		if !cfg.Persistent {
			// HTTP/1.0: the server closes; drain the FIN and dial fresh
			// next time.
			for {
				d, alive := ep.Recv(p)
				if !alive {
					break
				}
				d.Release()
			}
			ep.Close(p)
			conn = nil
		}
	}
}

// response carries one parsed response.
type response struct {
	bodyLen  int64
	totalLen int64
	body     []byte
}

// readResponse consumes one complete HTTP response from ep. With
// materialize false, body bytes are counted and released without copying.
func readResponse(p *sim.Proc, ep *netsim.Endpoint, materialize bool) (response, bool) {
	var head []byte
	var bodyStart int
	var contentLen int64
	// Read until the full header is present.
	for {
		d, alive := ep.Recv(p)
		if !alive {
			return response{}, false
		}
		head = append(head, d.Bytes()...)
		d.Release()
		var ok bool
		bodyStart, contentLen, ok = ParseResponseHeader(head)
		if ok {
			break
		}
	}
	got := int64(len(head) - bodyStart)
	var body []byte
	if materialize {
		body = append(body, head[bodyStart:]...)
	}
	for got < contentLen {
		d, alive := ep.Recv(p)
		if !alive {
			return response{}, false
		}
		got += int64(d.Len())
		if materialize {
			body = append(body, d.Bytes()...)
		}
		d.Release()
	}
	if got != contentLen {
		// Deliveries never split mid-response in this client's usage (the
		// next response only starts after we send the next request), so
		// overshoot indicates a framing bug.
		return response{}, false
	}
	return response{bodyLen: contentLen, totalLen: contentLen + int64(bodyStart), body: body}, true
}
