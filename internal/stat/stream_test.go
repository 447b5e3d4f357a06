package stat

import (
	"sync/atomic"
	"testing"
)

// coinTrial succeeds when a cheap hash of the seed lands below p·2^64 —
// a deterministic stand-in for a Bernoulli(p) simulation.
func coinTrial(p float64) Trial {
	threshold := uint64(p * (1 << 63) * 2)
	return func(seed uint64) bool {
		x := seed * 0x9e3779b97f4a7c15
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		return x < threshold
	}
}

func TestEstimateStreamNoRuleMatchesEstimate(t *testing.T) {
	trial := coinTrial(0.7)
	want := Proportion{Trials: 500}
	for i := uint64(0); i < 500; i++ {
		if trial(99 + i) {
			want.Successes++
		}
	}
	got := EstimateStreamFrom(Proportion{}, 500, 99, StopRule{}, func() Trial { return trial })
	if got != want {
		t.Fatalf("stream %+v != plain %+v", got, want)
	}
}

// TestEstimateStreamStopsPrefix: with a target rule the stream must stop
// early, on a deterministic prefix of the seed sequence, and report
// exactly the successes of that prefix.
func TestEstimateStreamStopsPrefix(t *testing.T) {
	trial := coinTrial(0.99)
	rule := StopRule{Target: 0.5, UseTarget: true, Batch: 64}
	const max = 100000
	got := EstimateStreamFrom(Proportion{}, max, 7, rule, func() Trial { return trial })
	if got.Trials >= max {
		t.Fatalf("never stopped: %+v", got)
	}
	if got.Trials%64 != 0 {
		t.Fatalf("stopped mid-batch: %+v", got)
	}
	succ := 0
	for i := uint64(0); i < uint64(got.Trials); i++ {
		if trial(7 + i) {
			succ++
		}
	}
	if succ != got.Successes {
		t.Fatalf("prefix successes %d != reported %d", succ, got.Successes)
	}
}

func TestEstimateStreamHalfWidth(t *testing.T) {
	trial := coinTrial(0.5)
	rule := StopRule{HalfWidth: 0.1, Batch: 32}
	got := EstimateStreamFrom(Proportion{}, 100000, 3, rule, func() Trial { return trial })
	lo, hi := got.Wilson(1.96)
	if got.Trials >= 100000 {
		t.Fatalf("half-width rule never stopped: %+v", got)
	}
	if (hi-lo)/2 > 0.1 {
		t.Fatalf("stopped at half-width %v", (hi-lo)/2)
	}
}

// TestEstimateStreamUndecidedRunsAll: an estimate pinned exactly at the
// target can never decide and must exhaust the budget.
func TestEstimateStreamUndecidedRunsAll(t *testing.T) {
	trial := coinTrial(0.5)
	rule := StopRule{Target: 0.5, UseTarget: true, Batch: 50}
	got := EstimateStreamFrom(Proportion{}, 400, 1, rule, func() Trial { return trial })
	if got.Trials != 400 {
		t.Fatalf("pinned stream stopped early: %+v", got)
	}
}

// TestEstimateStreamFromResume: resuming a stream must visit exactly the
// seed suffix a one-shot run of the full budget would, with or without a
// stopping rule, and a start that already satisfies the rule (or the
// budget) must return unchanged without constructing a single trial.
func TestEstimateStreamFromResume(t *testing.T) {
	trial := coinTrial(0.7)
	mk := func() Trial { return trial }

	full := EstimateStreamFrom(Proportion{}, 1000, 42, StopRule{}, mk)
	part := EstimateStreamFrom(Proportion{}, 300, 42, StopRule{}, mk)
	resumed := EstimateStreamFrom(part, 1000, 42, StopRule{}, mk)
	if resumed != full {
		t.Fatalf("resumed %+v != one-shot %+v", resumed, full)
	}

	rule := StopRule{HalfWidth: 0.08, Batch: 32}
	ruleFull := EstimateStreamFrom(Proportion{}, 100000, 42, rule, mk)
	rulePart := EstimateStreamFrom(Proportion{}, 96, 42, StopRule{}, mk) // 96 = 3 batches
	ruleResumed := EstimateStreamFrom(rulePart, 100000, 42, rule, mk)
	if ruleResumed != ruleFull {
		t.Fatalf("rule-resumed %+v != rule one-shot %+v", ruleResumed, ruleFull)
	}

	var makers atomic.Int64
	counting := func() Trial { makers.Add(1); return trial }
	if got := EstimateStreamFrom(ruleFull, 100000, 42, rule, counting); got != ruleFull {
		t.Fatalf("satisfied start changed: %+v != %+v", got, ruleFull)
	}
	if got := EstimateStreamFrom(full, 1000, 42, StopRule{}, counting); got != full {
		t.Fatalf("exhausted budget changed: %+v != %+v", got, full)
	}
	if makers.Load() != 0 {
		t.Fatalf("satisfied resumes constructed %d trials, want 0", makers.Load())
	}
}

func TestStopRuleDone(t *testing.T) {
	rule := StopRule{Target: 0.9, UseTarget: true}
	if rule.Done(Proportion{}) {
		t.Fatal("empty proportion cannot be decided")
	}
	if !rule.Done(Proportion{Successes: 500, Trials: 500}) {
		t.Fatal("500/500 should be decided above 0.9")
	}
	if !rule.Done(Proportion{Successes: 0, Trials: 100}) {
		t.Fatal("0/100 should be decided below 0.9")
	}
	if rule.Done(Proportion{Successes: 9, Trials: 10}) {
		t.Fatal("9/10 should still straddle 0.9")
	}
}
