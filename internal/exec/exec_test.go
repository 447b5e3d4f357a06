package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"faultcast/internal/rng"
	"faultcast/internal/stat"
)

// fakeTrial is a deterministic seed-driven trial with success rate p and a
// tunable amount of busywork, shared by every test below.
func fakeTrial(p float64) stat.Trial {
	return func(seed uint64) bool {
		return rng.New(seed).Float64() < p
	}
}

// TestRunMatchesEstimateStream: for a mix of rules, budgets, and resume
// points, every cell scheduled on the shared pool must produce exactly the
// Proportion the sequential reference stat.EstimateStreamFrom computes for
// the same parameters. Block cells are held to the same reference by
// stat's TestEstimate*BlocksMatchesPerTrial.
func TestRunMatchesEstimateStream(t *testing.T) {
	type cse struct {
		max   int
		seed  uint64
		start stat.Proportion
		rule  stat.StopRule
		p     float64
	}
	cases := []cse{
		{max: 500, seed: 1, p: 0.5}, // no rule: full sample
		{max: 2000, seed: 2, p: 0.95, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // early stop, decided above
		{max: 2000, seed: 3, p: 0.05, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // early stop, decided below
		{max: 4000, seed: 4, p: 0.3, rule: stat.StopRule{HalfWidth: 0.05}},                       // precision stop
		{max: 300, seed: 5, p: 0.7, start: stat.Proportion{Successes: 60, Trials: 100}},          // resumed
		{max: 100, seed: 6, p: 0.7, start: stat.Proportion{Successes: 100, Trials: 100}},         // already exhausted
		{max: 1000, seed: 7, p: 1.0, start: stat.Proportion{Successes: 64, Trials: 64},
			rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // start already satisfies rule
		{max: 50, seed: 8, p: 0.5, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6, Batch: 7}}, // odd batch
	}
	want := make([]stat.Proportion, len(cases))
	cells := make([]Cell, len(cases))
	for i, c := range cases {
		c := c
		newTrial := func() stat.Trial { return fakeTrial(c.p) }
		want[i] = stat.EstimateStreamFrom(c.start, c.max, c.seed, c.rule, newTrial)
		cells[i] = Cell{
			MaxTrials: c.max, BaseSeed: c.seed, Start: c.start, Rule: c.rule,
			NewTrial: newTrial,
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got := make([]stat.Proportion, len(cases))
		calls := make([]int, len(cases))
		if err := Run(context.Background(), workers, cells, func(i int, p stat.Proportion) {
			got[i] = p
			calls[i]++
		}); err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			if calls[i] != 1 {
				t.Fatalf("workers=%d cell %d: onDone called %d times", workers, i, calls[i])
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: shared pool %+v != stream %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSharedKeyReusesTrials: cells with one SharedKey must instantiate at
// most one Trial per worker, not one per (worker, cell).
func TestSharedKeyReusesTrials(t *testing.T) {
	var made atomic.Int64
	const workers = 3
	cells := make([]Cell, 12)
	for i := range cells {
		cells[i] = Cell{
			MaxTrials: 64, BaseSeed: uint64(i) * 1000, SharedKey: "same-plan",
			NewTrial: func() stat.Trial {
				made.Add(1)
				return fakeTrial(0.5)
			},
		}
	}
	if err := Run(context.Background(), workers, cells, nil); err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n > workers {
		t.Fatalf("NewTrial called %d times for %d workers sharing one key", n, workers)
	}
}

// TestEarlyStoppedCellYieldsWorkers: schedule one cell that stops after
// its first batch next to one that runs a long full sample; both must
// finish, and the early cell must report its decided batch count.
func TestEarlyStoppedCellYieldsWorkers(t *testing.T) {
	cells := []Cell{
		{MaxTrials: 100000, BaseSeed: 1, NewTrial: func() stat.Trial { return fakeTrial(1.0) },
			Rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}},
		{MaxTrials: 3000, BaseSeed: 2, NewTrial: func() stat.Trial { return fakeTrial(0.5) }},
	}
	got := make([]stat.Proportion, 2)
	if err := Run(context.Background(), 4, cells, func(i int, p stat.Proportion) { got[i] = p }); err != nil {
		t.Fatal(err)
	}
	if got[0].Trials >= 1000 {
		t.Fatalf("always-succeeding cell never stopped early: %+v", got[0])
	}
	if got[1].Trials != 3000 {
		t.Fatalf("full-sample cell ran %d/3000 trials", got[1].Trials)
	}
}

// TestRunCancellation: cancelling the context must stop the schedule and
// report ctx.Err without running the remaining budget.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	cells := []Cell{{
		MaxTrials: 1 << 30, BaseSeed: 1,
		Rule: stat.StopRule{HalfWidth: 1e-9}, // unreachable precision: runs "forever"
		NewTrial: func() stat.Trial {
			return func(seed uint64) bool {
				if ran.Add(1) == 100 {
					cancel()
				}
				return fakeTrial(0.5)(seed)
			}
		},
	}}
	err := Run(ctx, 4, cells, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The bound is loose: trials here are nanosecond-fast, so workers can
	// claim thousands more during the microseconds cancellation takes to
	// propagate — what matters is that the 2^30 budget was abandoned.
	if n := ran.Load(); n > 1<<20 {
		t.Fatalf("ran %d trials after cancellation", n)
	}
}

// TestCancelAtBatchBoundaryNotEmitted: when cancellation lands while a
// cell's final in-flight batch trial completes, the batch boundary is
// reached during wind-down — the truncated cell must NOT be emitted as
// decided, and Run must still report ctx.Err().
func TestCancelAtBatchBoundaryNotEmitted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := []Cell{{
		MaxTrials: 1 << 20, BaseSeed: 0,
		Rule: stat.StopRule{HalfWidth: 1e-9, Batch: 4}, // never satisfied; tiny batches
		NewTrial: func() stat.Trial {
			return func(seed uint64) bool {
				if seed == 3 { // last trial of the first batch
					cancel()
				}
				return fakeTrial(0.5)(seed)
			}
		},
	}}
	emitted := 0
	err := Run(ctx, 1, cells, func(int, stat.Proportion) { emitted++ })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Fatalf("truncated cell was emitted as decided (%d emits)", emitted)
	}
}

// TestManyCellsManyWorkers is a stress shape: more cells than workers,
// mixed rules, run under the race detector in CI.
func TestManyCellsManyWorkers(t *testing.T) {
	const n = 40
	cells := make([]Cell, n)
	var mu sync.Mutex
	seen := map[int]stat.Proportion{}
	for i := range cells {
		i := i
		rule := stat.StopRule{}
		if i%2 == 0 {
			rule = stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}
		}
		cells[i] = Cell{
			MaxTrials: 200 + i, BaseSeed: uint64(i) * 7919, Rule: rule,
			NewTrial: func() stat.Trial { return fakeTrial(float64(i) / n) },
		}
	}
	if err := Run(context.Background(), 5, cells, func(i int, p stat.Proportion) {
		mu.Lock()
		seen[i] = p
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("only %d/%d cells reported", len(seen), n)
	}
	// Re-run: every cell must reproduce exactly (determinism under load).
	if err := Run(context.Background(), 11, cells, func(i int, p stat.Proportion) {
		mu.Lock()
		if seen[i] != p {
			t.Errorf("cell %d nondeterministic: %+v vs %+v", i, seen[i], p)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateCell(t *testing.T) {
	p := EstimateCell(3, Cell{MaxTrials: 400, BaseSeed: 9, NewTrial: func() stat.Trial { return fakeTrial(0.25) }})
	if p.Trials != 400 {
		t.Fatalf("ran %d/400 trials", p.Trials)
	}
	want := stat.EstimateStreamFrom(stat.Proportion{}, 400, 9, stat.StopRule{}, func() stat.Trial { return fakeTrial(0.25) })
	if p != want {
		t.Fatalf("EstimateCell %+v != stream %+v", p, want)
	}
}

// TestProbeObservation pins the Probe contract: per-batch stats fire at
// every batch boundary, their trial/success sums reconcile exactly with
// the cell's final tally, timing fields are populated, and — the
// determinism half — attaching a probe changes nothing about the result.
func TestProbeObservation(t *testing.T) {
	mkCells := func(probe func(BatchStat)) []Cell {
		return []Cell{
			{
				MaxTrials: 500, BaseSeed: 1,
				// An enabled rule that cannot trigger in 500 trials, so the
				// stream runs in 64-trial batches to budget exhaustion.
				Rule:     stat.StopRule{HalfWidth: 0.0001, Batch: 64},
				NewTrial: func() stat.Trial { return fakeTrial(0.5) },
				Probe:    probe,
			},
			{
				MaxTrials: 300, BaseSeed: 9,
				Start:    stat.Proportion{Successes: 60, Trials: 100},
				Rule:     stat.StopRule{Batch: 50},
				NewTrial: func() stat.Trial { return fakeTrial(0.7) },
				Probe:    probe,
			},
		}
	}
	run := func(cells []Cell) []stat.Proportion {
		got := make([]stat.Proportion, len(cells))
		if err := Run(context.Background(), 4, cells, func(i int, p stat.Proportion) { got[i] = p }); err != nil {
			t.Fatal(err)
		}
		return got
	}

	var mu sync.Mutex
	var stats []BatchStat
	probed := run(mkCells(func(bs BatchStat) {
		mu.Lock()
		stats = append(stats, bs)
		mu.Unlock()
	}))
	bare := run(mkCells(nil))
	for i := range bare {
		if probed[i] != bare[i] {
			t.Fatalf("cell %d: probed tally %+v != unprobed %+v", i, probed[i], bare[i])
		}
	}

	// Reconcile the probe stream against the final tallies. The resume
	// prefix (cell 1's Start) is prior work, never reported.
	trials := map[int]int{}
	succ := map[int]int{}
	for _, bs := range stats {
		if bs.Cell != 0 && bs.Cell != 1 {
			t.Fatalf("probe reported unknown cell %d", bs.Cell)
		}
		if bs.Trials <= 0 {
			t.Fatalf("empty batch reported: %+v", bs)
		}
		if bs.Engine < 0 || bs.Wall <= 0 {
			t.Fatalf("unpopulated timing: %+v", bs)
		}
		trials[bs.Cell] += bs.Trials
		succ[bs.Cell] += bs.Successes
	}
	if trials[0] != probed[0].Trials || succ[0] != probed[0].Successes {
		t.Fatalf("cell 0: probe saw %d/%d, tally %+v", succ[0], trials[0], probed[0])
	}
	wantTrials := probed[1].Trials - 100 // minus the resumed prefix
	wantSucc := probed[1].Successes - 60
	if trials[1] != wantTrials || succ[1] != wantSucc {
		t.Fatalf("cell 1: probe saw %d/%d, want %d/%d", succ[1], trials[1], wantSucc, wantTrials)
	}
	// Batch sizing is probe-independent: cell 0 runs to budget with
	// batch 64, partitioned the same way as without a probe
	// (500 = 7×64 + 52).
	var c0 int
	for _, bs := range stats {
		if bs.Cell == 0 {
			c0++
		}
	}
	if c0 != 8 {
		t.Fatalf("cell 0 reported %d batches, want 8", c0)
	}
}
