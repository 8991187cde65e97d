package experiments

import (
	"testing"
	"time"
)

// TestChaosAcceptance is the PR's acceptance gate: at 1% segment loss with
// periodic worker kills and replay enabled, the depth-16 sock-local ref
// tier completes 100% of its idempotent requests, leaks no buffer
// references, keeps charged copy work per delivery at the clean run's pin
// (recovery must not re-charge payload copies), and holds goodput at ≥ 70%
// of the fault-free baseline.
func TestChaosAcceptance(t *testing.T) {
	warm, meas := 100*time.Millisecond, 500*time.Millisecond
	clean := RunChaos(ChaosParams{Warmup: warm, Measure: meas})
	faulty := RunChaos(ChaosParams{
		LossProb:  0.01,
		KillEvery: 20 * time.Millisecond,
		Replay:    true,
		Warmup:    warm,
		Measure:   meas,
	})

	if clean.Failed != 0 || clean.RetransSegs != 0 {
		t.Fatalf("clean run not clean: failed=%d retrans=%d", clean.Failed, clean.RetransSegs)
	}
	if faulty.Failed != 0 {
		t.Errorf("replay lost %d idempotent requests, want 0 (replays=%d reroutes=%d respawns=%d)",
			faulty.Failed, faulty.Replays, faulty.Reroutes, faulty.Respawns)
	}
	if faulty.LeakPages != 0 || clean.LeakPages != 0 {
		t.Errorf("leaked pages: clean=%d faulty=%d, want 0/0", clean.LeakPages, faulty.LeakPages)
	}
	if faulty.Respawns == 0 || faulty.RetransSegs == 0 {
		t.Errorf("chaos did not bite: respawns=%d retrans=%d", faulty.Respawns, faulty.RetransSegs)
	}
	// The copy pin: retransmission re-sends stored references, never
	// re-charged payload copies, so the only copy work faults may add is
	// each respawned worker generation packing its own copy of the doc
	// exactly once (the boundary copy is per-generation, not per-request).
	cleanKB := clean.CopiedKBPerReq * float64(faulty.Requests)
	packKB := float64(faulty.Respawns) * 16.0 // one DocBytes pack per generation
	gotKB := faulty.CopiedKBPerReq * float64(faulty.Requests)
	if budget := (cleanKB + packKB) * 1.10; gotKB > budget {
		t.Errorf("copied %.1fKB under chaos exceeds pin %.1fKB (clean %.1fKB + %d respawn packs) — recovery re-charged copies",
			gotKB, budget, cleanKB, faulty.Respawns)
	}
	if faulty.GoodputKReq < 0.70*clean.GoodputKReq {
		t.Errorf("goodput %.1f kreq/s under chaos, want ≥ 70%% of clean %.1f",
			faulty.GoodputKReq, clean.GoodputKReq)
	}
	t.Logf("clean: %.1f kreq/s p99=%.0fµs copied=%.2fKB/req", clean.GoodputKReq, clean.P99Us, clean.CopiedKBPerReq)
	t.Logf("chaos: %.1f kreq/s p99=%.0fµs copied=%.2fKB/req replays=%d retrans=%.2f%%",
		faulty.GoodputKReq, faulty.P99Us, faulty.CopiedKBPerReq, faulty.Replays, faulty.RetransPct*100)
}

// TestChaosKillsWithoutReplayFail pins the contrast column: the same kills
// without the replay policy must actually lose in-flight requests (the
// failure replay exists to absorb).
func TestChaosKillsWithoutReplayFail(t *testing.T) {
	r := RunChaos(ChaosParams{
		KillEvery: 10 * time.Millisecond,
		Replay:    false,
		Warmup:    50 * time.Millisecond,
		Measure:   200 * time.Millisecond,
	})
	if r.Failed == 0 {
		t.Error("no failures without replay despite periodic kills — the contrast is broken")
	}
	if r.Replays != 0 {
		t.Errorf("replays=%d with the policy off", r.Replays)
	}
	if r.LeakPages != 0 {
		t.Errorf("failed requests leaked %d pages", r.LeakPages)
	}
}

// TestStaleChaosLegDegrades pins the proxy leg: during the origin outage
// the proxy serves expired entries instead of failing clients.
func TestStaleChaosLegDegrades(t *testing.T) {
	r := RunStaleChaos()
	if r.StaleServed == 0 {
		t.Errorf("no stale-served requests during the outage: %+v", r)
	}
	if r.Aborted != 0 {
		t.Errorf("%d requests failed despite ServeStale: %+v", r.Aborted, r)
	}
}

// TestChaosAcceptanceOffload reruns the chaos acceptance gate with segment
// offload on: super-segments and delayed acks must not cost the tier its
// recovery guarantees — 100% idempotent completion, zero leaked pages,
// MSS-granular hole retransmits only (the copy pin proves recovery never
// re-charges payload copies of whole super-segments), and goodput within
// 70% of the fault-free offload run.
func TestChaosAcceptanceOffload(t *testing.T) {
	warm, meas := 100*time.Millisecond, 500*time.Millisecond
	clean := RunChaos(ChaosParams{Offload: true, Warmup: warm, Measure: meas})
	faulty := RunChaos(ChaosParams{
		Offload:   true,
		LossProb:  0.01,
		KillEvery: 20 * time.Millisecond,
		Replay:    true,
		Warmup:    warm,
		Measure:   meas,
	})

	if clean.Failed != 0 || clean.RetransSegs != 0 {
		t.Fatalf("clean offload run not clean: failed=%d retrans=%d", clean.Failed, clean.RetransSegs)
	}
	if faulty.Failed != 0 {
		t.Errorf("replay lost %d idempotent requests under offload, want 0 (replays=%d respawns=%d)",
			faulty.Failed, faulty.Replays, faulty.Respawns)
	}
	if faulty.LeakPages != 0 || clean.LeakPages != 0 {
		t.Errorf("leaked pages: clean=%d faulty=%d, want 0/0", clean.LeakPages, faulty.LeakPages)
	}
	if faulty.Respawns == 0 || faulty.RetransSegs == 0 {
		t.Errorf("chaos did not bite: respawns=%d retrans=%d", faulty.Respawns, faulty.RetransSegs)
	}
	cleanKB := clean.CopiedKBPerReq * float64(faulty.Requests)
	packKB := float64(faulty.Respawns) * 16.0
	gotKB := faulty.CopiedKBPerReq * float64(faulty.Requests)
	if budget := (cleanKB + packKB) * 1.10; gotKB > budget {
		t.Errorf("copied %.1fKB under offload chaos exceeds pin %.1fKB (clean %.1fKB + %d respawn packs) — recovery re-charged copies",
			gotKB, budget, cleanKB, faulty.Respawns)
	}
	if faulty.GoodputKReq < 0.70*clean.GoodputKReq {
		t.Errorf("goodput %.1f kreq/s under offload chaos, want ≥ 70%% of clean %.1f",
			faulty.GoodputKReq, clean.GoodputKReq)
	}
	t.Logf("clean offl: %.1f kreq/s copied=%.2fKB/req; chaos offl: %.1f kreq/s copied=%.2fKB/req retrans=%.2f%%",
		clean.GoodputKReq, clean.CopiedKBPerReq, faulty.GoodputKReq, faulty.CopiedKBPerReq, faulty.RetransPct*100)
}
