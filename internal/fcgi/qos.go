package fcgi

import (
	"errors"

	"iolite/internal/obs"
	"iolite/internal/sim"
)

// Multi-tenant QoS at the pool router — the PAIO-style policy/enforcement
// split: policy lives here in one QoSConfig, enforcement rides the seams
// that already exist (the routing decision in Do, the per-worker mux
// depth) plus one request-rate bucket per tenant. Admission control is
// deliberately fail-fast: an over-limit request sheds with a typed error
// instead of queueing, so an adversarial tenant's backlog lives in the
// tenant's own retry loop, not in pool state the other tenants must queue
// behind.

// QoS admission errors. Both mean "this tenant, right now": the request
// never reached a worker, so the tenant may retry it after backing off.
var (
	// ErrThrottled: the tenant outran its request-rate allowance.
	ErrThrottled = errors.New("fcgi: tenant over request-rate allowance")
	// ErrOverShare: the tenant already holds its full in-flight share of
	// the pool.
	ErrOverShare = errors.New("fcgi: tenant over in-flight share")
)

// qosAdmitCost is the CPU charge of one admission decision (a map probe,
// a bucket refill, two bounds checks) — metered so the enforcement
// overhead the QoS experiments report is honest, not free.
const qosAdmitCost = sim.Duration(300) // 300 ns

// QoSConfig is a pool's multi-tenant admission policy. Requests carrying
// an empty Tenant bypass QoS entirely (zero added cost — the
// single-tenant pools of earlier PRs are unaffected).
type QoSConfig struct {
	// MaxShare bounds each tenant's concurrent in-flight requests
	// (default 2); a tenant at its bound sheds with ErrOverShare.
	MaxShare int
	// ReqRate, when positive, bounds each tenant's admitted requests/second
	// with a per-tenant token bucket; a tenant outrunning it sheds with
	// ErrThrottled.
	ReqRate int64
	// ReqBurst is the bucket burst (default: one second of ReqRate).
	ReqBurst int64
	// Meters, when set, accumulates per-tenant admitted/shed/throttled
	// counts.
	Meters *obs.Tenants
}

// maxShare returns the per-tenant in-flight bound.
func (q *QoSConfig) maxShare() int {
	if q.MaxShare > 0 {
		return q.MaxShare
	}
	return 2
}

// tenantQoS is one tenant's admission state: its in-flight count and rate
// bucket.
type tenantQoS struct {
	inflight int
	bucket   *tokenBucket // nil when ReqRate is unset
}

// nanoTok is the bucket's token granularity: one request is 1e9
// nano-tokens. At that scale a refill of rate tokens/second is exactly
// rate nano-tokens per nanosecond, so refill arithmetic is integer and
// drift-free.
const nanoTok = int64(1e9)

// tokenBucket is one tenant's request-rate allowance. Tokens accrue
// continuously at rate per second up to a burst, and each admitted request
// takes one. It never parks a caller and never goes into debt: a request
// that finds less than a whole token is throttled.
type tokenBucket struct {
	rate  int64 // tokens per second == nano-tokens per nanosecond
	burst int64 // capacity in nano-tokens
	avail int64 // nano-tokens on hand
	last  sim.Time
}

// newTokenBucket makes a bucket, full at now, refilling at rate
// tokens/second with the given burst in tokens; burst <= 0 means one second
// of rate.
func newTokenBucket(now sim.Time, rate, burst int64) *tokenBucket {
	if burst <= 0 {
		burst = rate
	}
	full := burst * nanoTok
	return &tokenBucket{rate: rate, burst: full, avail: full, last: now}
}

// tryTake accrues tokens for the time since the last call, then takes one
// if a whole token is on hand.
func (b *tokenBucket) tryTake(now sim.Time) bool {
	if el := int64(now.Sub(b.last)); el > 0 {
		// Guard el*rate against overflow: if the elapsed time is enough
		// to fill the bucket outright, clamp instead of multiplying.
		if nsToFill := (b.burst - b.avail) / b.rate; el > nsToFill {
			b.avail = b.burst
		} else {
			b.avail += el * b.rate
		}
	}
	b.last = now
	if b.avail < nanoTok {
		return false
	}
	b.avail -= nanoTok
	return true
}

// tenantState lazily builds tenant's admission state at now.
func (wp *WorkerPool) tenantState(now sim.Time, tenant string) *tenantQoS {
	ts, ok := wp.qosState[tenant]
	if ok {
		return ts
	}
	q := wp.cfg.QoS
	ts = &tenantQoS{}
	if q.ReqRate > 0 {
		ts.bucket = newTokenBucket(now, q.ReqRate, q.ReqBurst)
	}
	if wp.qosState == nil {
		wp.qosState = make(map[string]*tenantQoS)
	}
	wp.qosState[tenant] = ts
	return ts
}

// admitQoS is the admission decision for one request. It returns a
// release hook (run when the request leaves the pool, however it ends)
// and nil, or a typed shed error. The decision's CPU cost is charged to
// the calling proc on the server machine.
func (wp *WorkerPool) admitQoS(p *sim.Proc, req *Request) (func(), error) {
	q := wp.cfg.QoS
	if q == nil || req.Tenant == "" {
		return nil, nil
	}
	if m := wp.cfg.Machine; m != nil {
		m.Host.Use(p, qosAdmitCost)
	}
	ts := wp.tenantState(p.Now(), req.Tenant)
	stats := q.Meters.Get(req.Tenant)
	if ts.inflight >= q.maxShare() {
		wp.sheds++
		stats.Sheds++
		return nil, ErrOverShare
	}
	if ts.bucket != nil && !ts.bucket.tryTake(p.Now()) {
		wp.throttles++
		stats.Throttles++
		return nil, ErrThrottled
	}
	ts.inflight++
	stats.Requests++
	return func() { ts.inflight-- }, nil
}

// tenantLoad reports how many of tenant's requests are in flight on this
// worker (the tenant-aware routing signal).
func (w *Worker) tenantLoad(tenant string) int {
	return w.perTenant[tenant]
}

// addTenant adjusts the worker's per-tenant in-flight count, reaping
// zeroed entries so thousands of transient tenants don't accrete.
func (w *Worker) addTenant(tenant string, d int) {
	if tenant == "" {
		return
	}
	if w.perTenant == nil {
		w.perTenant = make(map[string]int)
	}
	w.perTenant[tenant] += d
	if w.perTenant[tenant] <= 0 {
		delete(w.perTenant, tenant)
	}
}

// IsShed reports whether err is a QoS admission refusal (ErrOverShare or
// ErrThrottled) — the errors a tenant answers with backoff, as opposed to
// real failures.
func IsShed(err error) bool {
	return errors.Is(err, ErrOverShare) || errors.Is(err, ErrThrottled)
}

// Sheds reports requests refused at admission: depth-bound sheds and
// rate throttles. Neither counts as a pool failure — the request never
// dispatched and the typed error tells the tenant to back off.
func (wp *WorkerPool) Sheds() (sheds, throttles int64) {
	return wp.sheds, wp.throttles
}
