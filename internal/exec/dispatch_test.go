package exec

import (
	"context"
	"slices"
	"sync"
	"testing"

	"faultcast/internal/stat"
)

// synthTrial mirrors the deterministic hash trial of the stat tests.
func synthTrial(threshold uint64) stat.Trial {
	return func(seed uint64) bool {
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z^(z>>31) < threshold
	}
}

// TestRunShardWorkerCountIndependent pins the shard primitive's
// determinism: identical tallies for 1, 3, and 16 workers, including a
// ragged final bucket.
func TestRunShardWorkerCountIndependent(t *testing.T) {
	maker := func() stat.Trial { return synthTrial(1 << 63) }
	want := RunShard(1, 1000, 100, 32, maker, nil)
	if err := want.Check(); err != nil {
		t.Fatalf("reference tally invalid: %v", err)
	}
	if len(want.Successes) != 4 {
		t.Fatalf("100 trials / batch 32: %d buckets", len(want.Successes))
	}
	for _, workers := range []int{3, 16, 0} {
		got := RunShard(workers, 1000, 100, 32, maker, nil)
		if got.Trials != want.Trials || got.Batch != want.Batch {
			t.Fatalf("workers=%d: shape %+v, want %+v", workers, got, want)
		}
		for i := range want.Successes {
			if got.Successes[i] != want.Successes[i] {
				t.Fatalf("workers=%d: bucket %d = %d, want %d", workers, i, got.Successes[i], want.Successes[i])
			}
		}
	}
}

// TestRunShardMatchesSequentialLoop: buckets must count exactly the
// trials a plain loop over the seed range counts.
func TestRunShardMatchesSequentialLoop(t *testing.T) {
	trial := synthTrial(1 << 62)
	const base, trials, batch = 77, 90, 25
	want := make([]int, 4)
	for i := 0; i < trials; i++ {
		if trial(base + uint64(i)) {
			want[i/batch]++
		}
	}
	got := RunShard(4, base, trials, batch, func() stat.Trial { return trial }, nil)
	for i := range want {
		if got.Successes[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (tally %+v)", i, got.Successes[i], want[i], got)
		}
	}
}

func TestRunShardDegenerate(t *testing.T) {
	maker := func() stat.Trial { return synthTrial(1 << 63) }
	if got := RunShard(4, 0, 0, 32, maker, nil); got.Trials != 0 || len(got.Successes) != 0 {
		t.Fatalf("zero-trial shard: %+v", got)
	}
	// batch <= 0 buckets the whole shard as one.
	got := RunShard(4, 5, 40, 0, maker, nil)
	if got.Batch != 40 || len(got.Successes) != 1 {
		t.Fatalf("unbatched shard: %+v", got)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalDispatcherIsRun: the Local dispatcher is Run verbatim.
func TestLocalDispatcherIsRun(t *testing.T) {
	cells := []Cell{{
		MaxTrials: 256,
		BaseSeed:  42,
		Rule:      stat.StopRule{HalfWidth: 0.02},
		NewTrial:  func() stat.Trial { return synthTrial(1 << 61) },
	}}
	var direct, viaLocal stat.Proportion
	if err := Run(context.Background(), 4, cells, func(_ int, p stat.Proportion) { direct = p }); err != nil {
		t.Fatal(err)
	}
	if err := (Local{}).Run(context.Background(), 4, cells, func(_ int, p stat.Proportion) { viaLocal = p }); err != nil {
		t.Fatal(err)
	}
	if direct != viaLocal {
		t.Fatalf("Local %+v != Run %+v", viaLocal, direct)
	}
}

// blockOf is the block-trial twin of trial: the same per-seed verdicts,
// packed 64 lanes to the word.
func blockOf(trial stat.Trial) stat.TrialBlock {
	return func(baseSeed uint64, count int) uint64 {
		var word uint64
		for i := 0; i < count; i++ {
			if trial(baseSeed + uint64(i)) {
				word |= 1 << uint(i)
			}
		}
		return word
	}
}

// TestRunShardBlocksMatchesRunShard pins RunShard with a block maker to
// RunShard without one, bucket for bucket, including batch sizes that are
// not multiples of the block width (so verdict words straddle buckets)
// and ragged final blocks — and the same for a bucketed cell resumed
// from a bucket-aligned Start, whose buckets count from Start on.
func TestRunShardBlocksMatchesRunShard(t *testing.T) {
	newTrial := func() stat.Trial { return synthTrial(1 << 62) }
	newBlock := func() stat.TrialBlock { return blockOf(synthTrial(1 << 62)) }
	cases := []struct{ trials, batch int }{
		{1, 0}, {70, 1}, {70, 7}, {150, 48}, {128, 64}, {333, 100}, {64, 0},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3, 8} {
			want := RunShard(workers, 99, c.trials, c.batch, newTrial, nil)
			got := RunShard(workers, 99, c.trials, c.batch, newTrial, newBlock)
			if got.Trials != want.Trials || got.Batch != want.Batch || len(got.Successes) != len(want.Successes) {
				t.Fatalf("trials=%d batch=%d workers=%d: shape %+v vs %+v", c.trials, c.batch, workers, got, want)
			}
			for i := range want.Successes {
				if got.Successes[i] != want.Successes[i] {
					t.Fatalf("trials=%d batch=%d workers=%d bucket %d: blocks=%d per-trial=%d",
						c.trials, c.batch, workers, i, got.Successes[i], want.Successes[i])
				}
			}
		}
	}

	// Resumed: trials [96, 333) of seed 99 in buckets of 32 are the
	// shard of 237 trials at seed 99+96.
	want := RunShard(1, 99+96, 333-96, 32, newTrial, nil)
	for _, workers := range []int{1, 3, 8} {
		for _, block := range []stat.TrialBlockMaker{nil, newBlock} {
			var got []int
			p := EstimateCell(workers, Cell{
				MaxTrials: 333, BaseSeed: 99, Bucket: 32,
				Start:    stat.Proportion{Successes: 50, Trials: 96},
				NewTrial: newTrial, NewBlock: block,
				OnBatch: func(trials, successes int) {
					if k := len(got); trials != min(32, 237-32*k) {
						t.Errorf("workers=%d bucket %d: %d trials", workers, k, trials)
					}
					got = append(got, successes)
				},
			})
			if p.Trials != 333 || p.Successes != 50+want.Total() {
				t.Fatalf("workers=%d blocks=%v: resumed cell %+v, want 333 trials, %d successes",
					workers, block != nil, p, 50+want.Total())
			}
			if len(got) != len(want.Successes) {
				t.Fatalf("workers=%d blocks=%v: %d buckets, want %d", workers, block != nil, len(got), len(want.Successes))
			}
			for i := range got {
				if got[i] != want.Successes[i] {
					t.Fatalf("workers=%d blocks=%v bucket %d: %d, want %d", workers, block != nil, i, got[i], want.Successes[i])
				}
			}
		}
	}
}

// TestUnruledBucketsDoNotClipBlocks: an un-ruled cell with a Bucket has
// no stop decisions, so its block claims are whole lane words, not
// clipped at every bucket boundary — every block call but the last (in
// seed order) runs 64 trials — while OnBatch still sees the Bucket-sized
// tallies a sequential loop counts.
func TestUnruledBucketsDoNotClipBlocks(t *testing.T) {
	const trials, bucket, base = 300, 32, 5
	trial := synthTrial(1 << 62)
	want := make([]int, (trials+bucket-1)/bucket)
	for i := 0; i < trials; i++ {
		if trial(base + uint64(i)) {
			want[i/bucket]++
		}
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		counts := map[uint64]int{} // block base seed -> count
		newBlock := func() stat.TrialBlock {
			inner := blockOf(trial)
			return func(baseSeed uint64, count int) uint64 {
				mu.Lock()
				counts[baseSeed] = count
				mu.Unlock()
				return inner(baseSeed, count)
			}
		}
		var got []int
		EstimateCell(workers, Cell{
			MaxTrials: trials, BaseSeed: base, Bucket: bucket,
			NewTrial: func() stat.Trial { return trial }, NewBlock: newBlock,
			OnBatch: func(_, successes int) { got = append(got, successes) },
		})
		seeds := make([]uint64, 0, len(counts))
		for s := range counts {
			seeds = append(seeds, s)
		}
		slices.Sort(seeds)
		for i, s := range seeds {
			if i < len(seeds)-1 && counts[s] != stat.BlockWidth {
				t.Fatalf("workers=%d: block at seed %d ran %d trials, want %d (claims clipped at buckets)",
					workers, s, counts[s], stat.BlockWidth)
			}
		}
		if last := seeds[len(seeds)-1]; counts[last] != trials%stat.BlockWidth {
			t.Fatalf("workers=%d: last block ran %d trials, want %d", workers, counts[last], trials%stat.BlockWidth)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d buckets, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d bucket %d: %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
