package apps

import (
	"fmt"
	"time"

	"iolite/internal/core"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The caching reverse proxy: a second-tier machine between the clients and
// the origin server. On a miss it fetches the document over its own
// outbound socket and stores the complete response; on a hit it serves the
// stored response without contacting the origin. The three modes span the
// design space the ROADMAP asks to measure:
//
//   - ProxyCopy is the conventional store-and-forward proxy: POSIX reads
//     copy every delivery out of socket buffers, the cache holds private
//     bytes, and every send copies them back in and checksums them on the
//     wire.
//   - ProxyZeroCopy is the IO-Lite port: IOL_read on the origin socket
//     yields the sender's sealed buffers by reference, the cache holds the
//     aggregate, and IOL_write passes the same buffers to every client —
//     zero copies end to end, checksums cached after the first send.
//   - ProxySplice additionally serves hits through the kernel splice fast
//     path: each cache entry sits behind a sealed-object descriptor
//     (kernel.NewAggDesc) in the proxy's per-stream pool cache, and one
//     Machine.SpliceAt moves header+body to the client socket with no
//     user-space aggregate handling at all.

// ProxyMode selects the proxy's data path.
type ProxyMode int

// Proxy modes.
const (
	ProxyCopy ProxyMode = iota
	ProxyZeroCopy
	ProxySplice
)

func (m ProxyMode) String() string {
	switch m {
	case ProxyCopy:
		return "proxy-copy"
	case ProxyZeroCopy:
		return "proxy-zerocopy"
	case ProxySplice:
		return "proxy-splice"
	}
	return "unknown"
}

// RefMode reports whether the mode sends to clients by reference.
func (m ProxyMode) RefMode() bool { return m != ProxyCopy }

// proxyRequestWork is the per-request parse/dispatch cost of the lean
// event-driven proxy.
const proxyRequestWork = 15 * time.Microsecond

// ProxyConfig wires a proxy tier.
type ProxyConfig struct {
	Mode ProxyMode
	// Machine is the proxy's own machine.
	Machine *kernel.Machine
	// Listener is the client-facing listener on Machine's host.
	Listener *netsim.Listener
	// Origin is the origin server's listener, reached over OriginLink.
	Origin     *netsim.Listener
	OriginLink *netsim.Link
	// OriginRef must be true when the origin is an IO-Lite server (its
	// sends pass buffer references).
	OriginRef bool
	// TTL bounds how long a cached response may be served (0 = forever);
	// it is the cache's only bound. A lookup that finds an entry older
	// than TTL retires it and refetches from the origin — expiry without
	// conditional revalidation.
	TTL time.Duration

	// Retries is how many extra origin-fetch attempts a failed miss gets
	// before the proxy gives up and answers 502 (0 = fail on the first
	// error). Attempts are spaced by RetryBackoff, doubled each round and
	// jittered so a burst of concurrent misses does not re-dial the origin
	// in lockstep.
	Retries int
	// RetryBackoff is the base delay before the first retry (default 1ms
	// when Retries > 0). The wait runs on the engine's shared timer wheel.
	RetryBackoff time.Duration
	// ServeStale degrades instead of failing: when the origin cannot be
	// reached on a refetch, a TTL-expired entry still present in the cache
	// is served (and counted in StaleServed) rather than answering 502 —
	// the stale copy outlives the origin outage.
	ServeStale bool

	// Obs, when set, opens a span per proxied request: parse, cache
	// lookup, origin fetch (dispatch), retry backoff, and client send are
	// phases; retransmit stalls on either socket are carved out as their
	// own phase. Nil keeps the proxy uninstrumented.
	Obs *obs.Collector
}

// proxyEntry is one cached response (header + body, exactly as the origin
// sent it). Exactly one representation is populated, per mode: raw bytes
// for the copying proxy, a sealed aggregate for the zero-copy relay, or a
// sealed-object descriptor for the splice path.
type proxyEntry struct {
	path string
	size int64
	raw  []byte
	resp *core.Agg
	fd   int
	// stored is the fetch instant, against which TTL expiry is judged.
	stored sim.Time

	// inflight counts connections currently sending this entry; eviction
	// of a busy entry only marks it dead, and the last sender reclaims it
	// (otherwise the splice fd could be closed — and its slot reused —
	// under a concurrent send).
	inflight int
	dead     bool
}

// Proxy is a running reverse-proxy tier.
type Proxy struct {
	cfg  ProxyConfig
	m    *kernel.Machine
	proc *kernel.Process
	lfd  int

	cache map[string]*proxyEntry

	requests    int64
	hits        int64
	misses      int64
	bytesOut    int64
	aborted     int64
	expired     int64
	retries     int64
	staleServed int64

	// rng drives retry jitter: a deterministic splitmix64 stream, so runs
	// replay exactly (the simulation has no wall clock to perturb them).
	rng uint64
}

// NewProxy creates and starts a reverse proxy on cfg.Listener.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.Retries > 0 && cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	px := &Proxy{cfg: cfg, m: cfg.Machine, cache: make(map[string]*proxyEntry), rng: 0x9e3779b97f4a7c15}
	px.proc = px.m.NewProcess("proxy", 2<<20)
	px.lfd = px.m.Listen(px.proc, cfg.Listener)
	px.m.Eng.Go("proxy.accept", px.acceptLoop)
	return px
}

// Stats reports requests relayed, cache hits/misses, bytes sent to
// clients, and responses not fully delivered (a client write error, or a
// failed origin fetch answered 502).
// Every request is exactly one hit or one miss — a stale-served request
// counts as a miss that degraded — so hits+misses always equals requests.
func (px *Proxy) Stats() (requests, hits, misses, bytesOut, aborted int64) {
	return px.requests, px.hits, px.misses, px.bytesOut, px.aborted
}

// HitRate reports the fraction of requests served from the cache.
func (px *Proxy) HitRate() float64 {
	if px.hits+px.misses == 0 {
		return 0
	}
	return float64(px.hits) / float64(px.hits+px.misses)
}

// StaleServed reports requests answered from a TTL-expired entry because
// the origin could not be reached (ServeStale mode).
func (px *Proxy) StaleServed() int64 { return px.staleServed }

func (px *Proxy) acceptLoop(p *sim.Proc) {
	for {
		cfd, err := px.m.Accept(p, px.proc, px.lfd)
		if err != nil {
			return
		}
		px.m.Eng.Go("proxy.conn", func(hp *sim.Proc) {
			px.handleConn(hp, cfd)
		})
	}
}

const proxyRecvChunk = 64 << 10

// handleConn serves proxied requests on client connection cfd until close.
func (px *Proxy) handleConn(p *sim.Proc, cfd int) {
	var pending []byte
	var buf []byte
	// The client socket's endpoint, when it has one, lets spans carve
	// retransmit stalls on the client side out of the send phase.
	var cep *netsim.Endpoint
	if px.cfg.Obs != nil {
		if d, err := px.proc.Desc(cfd); err == nil {
			cep, _ = kernel.EndpointOf(d)
		}
	}
	for {
		var sp *obs.Span
		if px.cfg.Obs != nil {
			sp = px.cfg.Obs.Start(px.cfg.Mode.String(), p.Now())
			sp.Enter(p.Now(), obs.PhaseParse)
			p.SetAttrib(sp)
		}
		var path string
		var keepalive, ok bool
		for {
			path, keepalive, ok = httpd.ParseRequest(pending)
			if ok {
				pending = nil
				break
			}
			var err error
			pending, err = httpd.ReadRequest(p, px.m, px.proc, cfd, px.cfg.Mode.RefMode(), pending, &buf)
			if err != nil {
				sp.Abandon()
				px.m.Close(p, px.proc, cfd)
				return
			}
		}

		px.m.Host.Use(p, proxyRequestWork)
		sp.Enter(p.Now(), obs.PhaseCacheLookup)

		// Pin the entry (inflight++) before any further yield: a concurrent
		// miss may evict it mid-send, and its resources — above all the
		// splice fd, whose table slot would otherwise be reused — must
		// outlive every sender. The last sender reclaims a dead entry.
		e := px.cache[path]
		var stale *proxyEntry
		if e != nil && px.cfg.TTL > 0 && p.Now().Sub(e.stored) > px.cfg.TTL {
			// The entry outlived its TTL. In ServeStale mode it stays in the
			// cache, pinned, as the fallback copy in case the refetch fails;
			// otherwise it is evicted outright. In-flight senders of the old
			// copy finish undisturbed either way (eviction pins busy entries).
			px.expired++
			if px.cfg.ServeStale {
				stale = e
				stale.inflight++
			} else {
				px.evict(p, e)
			}
			e = nil
		}
		if e != nil {
			px.hits++
			e.inflight++
		} else {
			px.misses++
			sp.Enter(p.Now(), obs.PhaseDispatch)
			fresh, ferr := px.fetchRetry(p, path, sp)
			switch {
			case ferr == nil:
				e = fresh
				e.inflight++
				px.insert(p, e) // retires the stale cache entry, if any
			case stale != nil:
				// Degrade, don't fail: the origin is unreachable but the
				// expired copy is still here. Serve it; the entry stays
				// cached (and expired), so the next request tries the
				// origin again.
				px.staleServed++
				e, stale = stale, nil // the pin transfers to the send below
			default:
				px.requests++
				px.aborted++
				px.m.WritePOSIX(p, px.proc, cfd, []byte("HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n"))
				sp.Abandon()
				p.SetAttrib(nil)
				px.m.Close(p, px.proc, cfd)
				return
			}
		}
		px.requests++
		sp.Enter(p.Now(), obs.PhaseSend)
		var stallBase sim.Duration
		if sp != nil && cep != nil {
			stallBase = cep.StallTime() + cep.PeerStallTime()
		}
		sent := px.send(p, cfd, e)
		if sp != nil && cep != nil {
			sp.Stall(cep.StallTime() + cep.PeerStallTime() - stallBase)
		}
		e.inflight--
		if e.dead && e.inflight == 0 {
			px.release(p, e)
		}
		if stale != nil {
			// The refetch superseded the pinned fallback copy; drop the pin
			// (insert marked it dead if senders were still on it).
			stale.inflight--
			if stale.dead && stale.inflight == 0 {
				px.release(p, stale)
			}
		}
		p.SetAttrib(nil)
		if !sent {
			sp.Abandon()
			px.aborted++
			px.m.Close(p, px.proc, cfd)
			return
		}
		px.bytesOut += e.size
		sp.Finish(p.Now())

		if !keepalive {
			px.m.Close(p, px.proc, cfd)
			return
		}
	}
}

// maxRetryBackoff caps the exponential growth of the retry delay.
const maxRetryBackoff = 2 * time.Second

// backoff computes the delay before retry attempt (0-based): the base
// doubled each round and jittered by up to +50% from the proxy's
// deterministic stream, so a burst of concurrent misses does not re-dial
// a struggling origin in lockstep.
func (px *Proxy) backoff(attempt int) time.Duration {
	d := px.cfg.RetryBackoff
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d >= maxRetryBackoff {
		d = maxRetryBackoff
	}
	if d <= 0 {
		return 0
	}
	// splitmix64 step.
	px.rng += 0x9e3779b97f4a7c15
	z := px.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d + time.Duration(z%uint64(d/2+1))
}

// fetchRetry runs fetch under the recovery policy: up to cfg.Retries extra
// attempts spaced by jittered exponential backoff on the engine's shared
// timer wheel. It returns the last attempt's error once they run out.
func (px *Proxy) fetchRetry(p *sim.Proc, path string, sp *obs.Span) (*proxyEntry, error) {
	for attempt := 0; ; attempt++ {
		e, err := px.fetch(p, path, sp)
		if err == nil {
			return e, nil
		}
		if attempt >= px.cfg.Retries {
			return nil, err
		}
		d := px.backoff(attempt)
		px.retries++
		if d > 0 {
			// The backoff wait is its own phase: recovery idle time, not
			// origin service time.
			sp.Enter(p.Now(), obs.PhaseBackoff)
			px.m.Eng.Wheel().Sleep(p, d)
			sp.Enter(p.Now(), obs.PhaseDispatch)
		}
	}
}

// fetch retrieves path from the origin over a fresh outbound connection and
// returns it as a cache entry (the complete response, header included).
func (px *Proxy) fetch(p *sim.Proc, path string, sp *obs.Span) (*proxyEntry, error) {
	ofd, err := px.m.Connect(p, px.proc, px.cfg.OriginLink, px.cfg.Origin, netsim.ConnOpts{ServerRefMode: px.cfg.OriginRef})
	if err != nil {
		return nil, err
	}
	defer px.m.Close(p, px.proc, ofd)
	if sp != nil {
		// Carve the origin connection's retransmit stalls out of the
		// dispatch phase — under injected loss, recovery time on the
		// origin leg shows up as its own phase, not as origin service.
		if d, err := px.proc.Desc(ofd); err == nil {
			if oep, ok := kernel.EndpointOf(d); ok {
				base := oep.StallTime() + oep.PeerStallTime()
				defer func() { sp.Stall(oep.StallTime() + oep.PeerStallTime() - base) }()
			}
		}
	}
	if _, err := px.m.WritePOSIX(p, px.proc, ofd, httpd.FormatRequest(path, false)); err != nil {
		return nil, err
	}

	e := &proxyEntry{path: path, fd: -1}
	if px.cfg.Mode.RefMode() {
		// Zero-copy receive: the origin's sealed buffers arrive by
		// reference, and the response aggregate is assembled from them
		// without touching a byte.
		resp := core.NewAgg()
		var total int64 = -1
		for total < 0 || int64(resp.Len()) < total {
			a, err := px.m.IOLRead(p, px.proc, ofd, kernel.MaxIO)
			if err != nil {
				resp.Release()
				return nil, err
			}
			resp.Concat(a)
			a.Release()
			if total < 0 {
				if bodyStart, n, ok := httpd.ParseResponseHeader(resp.Materialize()); ok {
					total = int64(bodyStart) + n
				}
			}
		}
		px.drain(p, ofd)
		e.resp = resp
		e.size = int64(resp.Len())
		return e, nil
	}

	// Conventional receive: every delivery is copied out of socket buffers
	// into the proxy's private cache bytes.
	var raw []byte
	var total int64 = -1
	buf := make([]byte, proxyRecvChunk)
	for total < 0 || int64(len(raw)) < total {
		n, err := px.m.ReadPOSIX(p, px.proc, ofd, buf)
		if err != nil {
			return nil, err
		}
		raw = append(raw, buf[:n]...)
		if total < 0 {
			if bodyStart, n, ok := httpd.ParseResponseHeader(raw); ok {
				total = int64(bodyStart) + n
			}
		}
	}
	px.drain(p, ofd)
	e.raw = raw
	e.size = int64(len(raw))
	return e, nil
}

// drain consumes the origin's FIN so the connection tears down cleanly.
func (px *Proxy) drain(p *sim.Proc, ofd int) {
	for {
		a, err := px.m.IOLRead(p, px.proc, ofd, kernel.MaxIO)
		if err != nil {
			return
		}
		a.Release()
	}
}

// insert adds e to the cache. In splice mode the response is sealed
// behind an object descriptor so hits can bypass user space entirely.
func (px *Proxy) insert(p *sim.Proc, e *proxyEntry) {
	if px.cfg.Mode == ProxySplice {
		e.fd = px.proc.Install(kernel.NewAggDesc(e.resp))
		e.resp = nil // the descriptor owns the aggregate now
	}
	// Two connections can miss on the same path concurrently (both yield
	// inside fetch) — and the TTL expiry path re-opens that window every
	// period. The second insert must evict the first entry, not orphan
	// it: a silent map overwrite would leak its aggregate or splice fd.
	if old := px.cache[e.path]; old != nil && old != e {
		px.evict(p, old)
	}
	e.stored = p.Now()
	px.cache[e.path] = e
}

// evict removes one entry from the cache. Resources are reclaimed at once
// when the entry is idle; a busy entry is marked dead and the last
// in-flight sender reclaims it.
func (px *Proxy) evict(p *sim.Proc, e *proxyEntry) {
	delete(px.cache, e.path)
	if e.inflight > 0 {
		e.dead = true
		return
	}
	px.release(p, e)
}

// release frees whatever representation an evicted entry holds.
func (px *Proxy) release(p *sim.Proc, e *proxyEntry) {
	switch {
	case e.fd >= 0:
		px.m.Close(p, px.proc, e.fd) // the aggDesc releases the aggregate
		e.fd = -1
	case e.resp != nil:
		e.resp.Release()
		e.resp = nil
	}
}

// send delivers a cached response to client connection cfd, per mode. It
// reports false on a write error (client gone).
func (px *Proxy) send(p *sim.Proc, cfd int, e *proxyEntry) bool {
	switch px.cfg.Mode {
	case ProxyCopy:
		_, err := px.m.WritePOSIX(p, px.proc, cfd, e.raw)
		return err == nil
	case ProxyZeroCopy:
		resp := e.resp.Clone()
		if err := px.m.IOLWrite(p, px.proc, cfd, resp); err != nil {
			resp.Release()
			return false
		}
		return true
	case ProxySplice:
		_, err := px.m.SpliceAt(p, px.proc, cfd, e.fd, 0, kernel.MaxIO)
		return err == nil
	}
	panic(fmt.Sprintf("apps: unknown proxy mode %d", px.cfg.Mode))
}
