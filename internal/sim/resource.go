package sim

// Resource models a single server with FIFO service order — in this
// reproduction, a CPU or a disk arm. A caller "uses" the resource for a
// service duration; concurrent users queue. Because service is FIFO and
// non-preemptive, the resource is fully described by the instant it next
// becomes free, which keeps the model O(1) per use.
type Resource struct {
	eng  *Engine
	name string

	freeAt Time // instant the resource next becomes idle

	busy     Duration // accumulated service time, for utilization stats
	statFrom Time
}

// NewResource returns an idle resource.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{eng: e, name: name, statFrom: e.Now()}
}

// Use enqueues a service demand of duration d for proc p and blocks p until
// the service completes. It returns the completion instant.
func (r *Resource) Use(p *Proc, d Duration) Time {
	if d < 0 {
		d = 0
	}
	start := r.eng.now
	if r.freeAt > start {
		start = r.freeAt
	}
	done := start.Add(d)
	r.freeAt = done
	r.busy += d
	p.SleepUntil(done)
	return done
}

// UseAsync enqueues a service demand without blocking; fn runs at completion.
// Used for fire-and-forget work such as device interrupts.
func (r *Resource) UseAsync(d Duration, fn func()) Time {
	if d < 0 {
		d = 0
	}
	start := r.eng.now
	if r.freeAt > start {
		start = r.freeAt
	}
	done := start.Add(d)
	r.freeAt = done
	r.busy += d
	if fn != nil {
		r.eng.At(done, fn)
	}
	return done
}

// Charge accounts service time without blocking anyone — used when the
// demanding party is already described by another mechanism but the
// resource's utilization should still reflect the work.
func (r *Resource) Charge(d Duration) {
	r.UseAsync(d, nil)
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Utilization reports the busy fraction since stats were last reset. It is
// capped at 1 even if demand currently exceeds capacity (queued work counts
// toward future intervals).
func (r *Resource) Utilization() float64 {
	elapsed := r.eng.now.Sub(r.statFrom)
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// BusyTime reports the total service time accepted since reset (it may
// extend past the current instant when work is queued).
func (r *Resource) BusyTime() Duration { return r.busy }

// ResetMeters zeroes the utilization counters, so a resource drops into an
// obs.ResetSet alongside the other meters.
func (r *Resource) ResetMeters() {
	r.busy = 0
	r.statFrom = r.eng.now
}
