package stat

import "testing"

// hashTrial is a deterministic synthetic trial: success iff a splitmix-style
// hash of the seed lands below the threshold. It stands in for a simulation
// so the replay equivalence below is a pure property of the statistics.
func hashTrial(threshold uint64) Trial {
	return func(seed uint64) bool {
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z^(z>>31) < threshold
	}
}

// shardTallies executes the full trial range [start, maxTrials) with no
// stopping rule, sliced into shards of shardTrials bucketed at batch —
// what a fleet of workers would return for the stream.
func shardTallies(trial Trial, baseSeed uint64, start, maxTrials, shardTrials, batch int) []Tally {
	var out []Tally
	for first := start; first < maxTrials; first += shardTrials {
		n := shardTrials
		if rest := maxTrials - first; n > rest {
			n = rest
		}
		t := Tally{Trials: n, Batch: batch, Successes: make([]int, (n+batch-1)/batch)}
		for i := 0; i < n; i++ {
			if trial(baseSeed + uint64(first+i)) {
				t.Successes[i/batch]++
			}
		}
		out = append(out, t)
	}
	return out
}

// TestReplayMatchesStream pins the cluster determinism contract at the
// statistics level: replaying per-batch shard tallies reproduces the exact
// Proportion (successes AND executed trials) of the sequential stream, for
// stopping rules of every kind, shard sizes that do and do not divide the
// budget, and resumed starts — and onBucket sees exactly the consumed
// buckets, so they sum to the replayed Proportion.
func TestReplayMatchesStream(t *testing.T) {
	rules := map[string]StopRule{
		"none":      {},
		"target":    {UseTarget: true, Target: 0.65, Z: 2.576},
		"halfwidth": {HalfWidth: 0.05},
		"both":      {UseTarget: true, Target: 0.65, Z: 2.576, HalfWidth: 0.04},
		"batch8":    {UseTarget: true, Target: 0.65, Z: 2.576, Batch: 8},
	}
	for name, rule := range rules {
		for _, shardBatches := range []int{1, 3, 7} {
			for _, start := range []Proportion{{}, {Successes: 37, Trials: 50}} {
				batch := rule.Batch
				if batch <= 0 {
					batch = 32
				}
				const maxTrials = 1000
				trial := hashTrial(3 << 61) // ≈ 0.75 success rate, near the target
				maker := func() Trial { return trial }
				want := EstimateStreamFrom(start, maxTrials, 99, rule, maker)

				shardTr := shardBatches * batch
				if !rule.Enabled() {
					// Without a rule there are no intra-shard decisions;
					// bucket at shard size, as the coordinator does.
					batch = shardTr
				}
				tallies := shardTallies(trial, 99, start.Trials, maxTrials, shardTr, batch)
				seen := start
				got, done := Replay(start, maxTrials, rule, tallies, func(trials, successes int) {
					seen.Trials += trials
					seen.Successes += successes
				})
				if seen != got {
					t.Errorf("%s/shard=%d/start=%v: onBucket sums to %+v, replay %+v", name, shardTr, start, seen, got)
				}
				if !done {
					t.Errorf("%s/shard=%d/start=%v: replay of the full budget not done", name, shardTr, start)
				}
				if got != want {
					t.Errorf("%s/shard=%d/start=%v: replay %+v, stream %+v", name, shardTr, start, got, want)
				}
			}
		}
	}
}

func TestReplayStartAlreadyDecided(t *testing.T) {
	start := Proportion{Successes: 90, Trials: 100}
	p, done := Replay(start, 100, StopRule{}, nil, nil)
	if !done || p != start {
		t.Fatalf("exhausted start: got %+v done=%v", p, done)
	}
	p, done = Replay(start, 1000, StopRule{UseTarget: true, Target: 0.2}, nil, nil)
	if !done || p != start {
		t.Fatalf("decided start: got %+v done=%v", p, done)
	}
}

// TestReplayDiscardsSpeculation: tallies past the deciding boundary must
// not leak into the estimate, nor reach onBucket.
func TestReplayDiscardsSpeculation(t *testing.T) {
	rule := StopRule{HalfWidth: 0.5} // decided after the very first batch
	tallies := []Tally{
		{Trials: 64, Batch: 32, Successes: []int{30, 1}},
		{Trials: 64, Batch: 32, Successes: []int{0, 0}},
	}
	var seen [][2]int
	p, done := Replay(Proportion{}, 1000, rule, tallies, func(trials, successes int) {
		seen = append(seen, [2]int{trials, successes})
	})
	if !done {
		t.Fatal("not done")
	}
	if p.Trials != 32 || p.Successes != 30 {
		t.Fatalf("speculative buckets leaked: %+v", p)
	}
	if len(seen) != 1 || seen[0] != [2]int{32, 30} {
		t.Fatalf("onBucket saw %v, want only the deciding bucket [32 30]", seen)
	}
}

func TestTallyCheck(t *testing.T) {
	ok := Tally{Trials: 70, Batch: 32, Successes: []int{10, 32, 6}}
	if err := ok.Check(); err != nil {
		t.Fatalf("valid tally rejected: %v", err)
	}
	if err := (Tally{}).Check(); err != nil {
		t.Fatalf("empty tally rejected: %v", err)
	}
	bad := []Tally{
		{Trials: -1},
		{Trials: 10, Batch: 0, Successes: []int{1}},
		{Trials: 70, Batch: 32, Successes: []int{10, 32}},       // missing bucket
		{Trials: 70, Batch: 32, Successes: []int{10, 32, 7}},    // ragged bucket overflow
		{Trials: 70, Batch: 32, Successes: []int{10, -1, 6}},    // negative
		{Trials: 0, Batch: 32, Successes: []int{0}},             // buckets without trials
		{Trials: 64, Batch: 32, Successes: []int{33, 0}},        // full bucket overflow
		{Trials: 64, Batch: 32, Successes: []int{10, 20, 0, 0}}, // too many buckets
	}
	for i, tl := range bad {
		if err := tl.Check(); err == nil {
			t.Errorf("bad tally %d accepted: %+v", i, tl)
		}
	}
	if got := ok.Total(); got != 48 {
		t.Fatalf("Total = %d, want 48", got)
	}
}
