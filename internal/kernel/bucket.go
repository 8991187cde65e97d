package kernel

import (
	"fmt"

	"iolite/internal/sim"
)

// nanoTok is the internal token granularity: one token (one byte, one
// request — the unit is the caller's) is 1e9 nano-tokens. At that scale a
// refill of `rate` tokens/second is exactly `rate` nano-tokens per
// nanosecond, so refill arithmetic is integer and drift-free.
const nanoTok = int64(1e9)

// tbWaiter is one proc parked on the bucket. need is the admission
// threshold in nano-tokens; take is what is actually debited (take may
// exceed need when a single op is larger than the burst — the bucket goes
// negative and the debt drains before anyone else is admitted).
type tbWaiter struct {
	p    *sim.Proc
	need int64
	take int64
	done bool
}

// TokenBucket is a deterministic token-bucket rate limiter driven by the
// engine's shared timer wheel. Tokens accrue continuously at rate/sec up
// to burst; Take parks the calling proc until its tokens are available,
// with waiters admitted strictly FIFO (no queue jumping past a parked
// waiter). One bucket may back many descriptors — per-tenant limits share
// a bucket across every stream the tenant owns.
type TokenBucket struct {
	eng   *sim.Engine
	rate  int64 // tokens per second == nano-tokens per nanosecond
	burst int64 // bucket capacity in tokens

	avail   int64 // nano-tokens on hand; negative while repaying oversize debt
	last    sim.Time
	waiters []*tbWaiter
	timer   *sim.Timer

	throttles int64

	// notify fires when solvency returns after nonblocking debt; the
	// limiter descriptor hangs poll notification off it.
	notify func()
	ntimer *sim.Timer
}

// NewTokenBucket makes a bucket refilling at ratePerSec tokens/second with
// the given burst capacity. burst <= 0 defaults to one second of rate. The
// bucket starts full.
func NewTokenBucket(eng *sim.Engine, ratePerSec, burst int64) *TokenBucket {
	if ratePerSec <= 0 {
		panic(fmt.Sprintf("kernel: token bucket rate %d must be positive", ratePerSec))
	}
	if burst <= 0 {
		burst = ratePerSec
	}
	return &TokenBucket{
		eng:   eng,
		rate:  ratePerSec,
		burst: burst,
		avail: burst * nanoTok,
		last:  eng.Now(),
	}
}

// Burst returns the bucket capacity in tokens.
func (b *TokenBucket) Burst() int64 { return b.burst }

// refill accrues tokens for the time since the last accounting instant.
func (b *TokenBucket) refill() {
	now := b.eng.Now()
	el := int64(now.Sub(b.last))
	b.last = now
	if el <= 0 {
		return
	}
	cap_ := b.burst * nanoTok
	// Guard el*rate against overflow: if the elapsed time is enough to
	// fill the bucket outright, clamp instead of multiplying.
	if nsToFill := (cap_ - b.avail) / b.rate; el > nsToFill {
		b.avail = cap_
		return
	}
	b.avail += el * b.rate
}

// TryTake debits n tokens if they are available right now, without
// parking. It refuses (and counts a throttle) when tokens are short or
// when parked waiters are queued ahead — a non-blocking caller must not
// jump the FIFO.
func (b *TokenBucket) TryTake(n int64) bool {
	b.refill()
	if len(b.waiters) > 0 || b.avail < n*nanoTok {
		b.throttles++
		return false
	}
	b.avail -= n * nanoTok
	return true
}

// Take debits n tokens, parking p until they have accrued. Ops larger
// than the burst are admitted once the bucket is full (waiting for more
// could never succeed) and leave the balance negative — the debt drains at
// the refill rate before the next waiter is served, so the long-run rate
// holds. Waiters are served strictly FIFO; waits are timed on the shared
// wheel.
func (b *TokenBucket) Take(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	b.refill()
	need := n * nanoTok
	if cap_ := b.burst * nanoTok; need > cap_ {
		need = cap_
	}
	take := n * nanoTok
	if len(b.waiters) == 0 && b.avail >= need {
		b.avail -= take
		return
	}
	b.throttles++
	w := &tbWaiter{p: p, need: need, take: take}
	b.waiters = append(b.waiters, w)
	b.arm()
	for !w.done {
		p.Park()
	}
}

// pump is the wheel callback: admit every satisfied waiter in FIFO order,
// then re-arm for the next one. The wheel tick is coarse, so a fire can be
// early relative to the head waiter's exact accrual instant — re-arming
// handles that by just waiting another round.
func (b *TokenBucket) pump() {
	b.timer = nil
	b.refill()
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		if b.avail < w.need {
			break
		}
		b.avail -= w.take
		b.waiters = append([]*tbWaiter(nil), b.waiters[1:]...)
		w.done = true
		w.p.Unpark()
	}
	if len(b.waiters) > 0 {
		b.arm()
	} else if b.avail > 0 && b.notify != nil {
		b.notify()
	}
}

// arm schedules the pump for the head waiter's earliest admission instant.
func (b *TokenBucket) arm() {
	if b.timer != nil && b.timer.Pending() {
		return
	}
	deficit := b.waiters[0].need - b.avail
	if deficit < 0 {
		deficit = 0
	}
	wait := sim.Duration(deficit/b.rate + 1)
	b.timer = b.eng.Wheel().Schedule(wait, b.pump)
}

// ForceTake debits n tokens without parking, letting the balance go
// negative — the O_NONBLOCK accounting: the op proceeds now, and Solvent
// reports false until the debt drains at the refill rate.
func (b *TokenBucket) ForceTake(n int64) {
	if n <= 0 {
		return
	}
	b.refill()
	b.avail -= n * nanoTok
	b.armNotify()
}

// Solvent reports whether a nonblocking op may proceed right now: no
// parked waiters ahead and no outstanding debt.
func (b *TokenBucket) Solvent() bool {
	b.refill()
	return len(b.waiters) == 0 && b.avail > 0
}

// SetNotify registers fn to fire when solvency returns after debt (nil
// clears). One hook per bucket; registering replaces the previous one.
func (b *TokenBucket) SetNotify(fn func()) {
	b.notify = fn
	b.armNotify()
}

// armNotify schedules the solvency notification while the bucket is in
// debt and someone is listening.
func (b *TokenBucket) armNotify() {
	if b.notify == nil {
		return
	}
	b.refill()
	if b.avail > 0 || (b.ntimer != nil && b.ntimer.Pending()) {
		return
	}
	wait := sim.Duration((1-b.avail)/b.rate + 1)
	b.ntimer = b.eng.Wheel().Schedule(wait, func() {
		b.ntimer = nil
		if b.Solvent() {
			if b.notify != nil {
				b.notify()
			}
			return
		}
		b.armNotify()
	})
}

// Throttles counts ops that could not proceed immediately (blocking waits
// plus refused TryTakes).
func (b *TokenBucket) Throttles() int64 { return b.throttles }
