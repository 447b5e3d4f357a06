package stat_test

import (
	"context"
	"testing"

	"faultcast/internal/exec"
	"faultcast/internal/stat"
)

// The block-trial contract lives in stat (TrialBlock, TrialBlockMaker,
// BlockWidth) while the one pool that claims blocks lives in exec, so
// these tests sit in an external test package: they run exec's pool on
// block trials and hold it to stat's sequential per-trial reference.

// verdict is the shared deterministic per-seed oracle the block and
// per-trial fakes both compute, so any disagreement between the two
// estimator families is a harness bug, not a trial bug.
func verdict(seed uint64) bool {
	x := seed * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x%5 < 2
}

func fakeTrial() stat.Trial {
	return func(seed uint64) bool { return verdict(seed) }
}

func fakeBlock() stat.TrialBlock {
	return func(baseSeed uint64, count int) uint64 {
		var word uint64
		for i := 0; i < count; i++ {
			if verdict(baseSeed + uint64(i)) {
				word |= 1 << uint(i)
			}
		}
		return word
	}
}

// checkBlocks runs cell once per worker count with block trials and fails
// unless every run equals the per-trial sequential reference.
func checkBlocks(t *testing.T, cell exec.Cell) {
	t.Helper()
	want := stat.EstimateStreamFrom(cell.Start, cell.MaxTrials, cell.BaseSeed, cell.Rule, fakeTrial)
	cell.NewTrial = fakeTrial
	cell.NewBlock = fakeBlock
	for _, workers := range []int{1, 2, 7} {
		var got stat.Proportion
		if err := exec.Run(context.Background(), workers, []exec.Cell{cell},
			func(_ int, p stat.Proportion) { got = p }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("max=%d rule=%+v start=%+v workers=%d: blocks %+v, per-trial %+v",
				cell.MaxTrials, cell.Rule, cell.Start, workers, got, want)
		}
	}
}

func TestEstimateWithBlocksMatchesPerTrial(t *testing.T) {
	// Trial counts straddling block boundaries: sub-block, exact multiples,
	// and ragged tails.
	for _, trials := range []int{1, 7, 63, 64, 65, 128, 130, 1000} {
		checkBlocks(t, exec.Cell{MaxTrials: trials, BaseSeed: 42})
	}
}

func TestEstimateStreamFromBlocksMatchesPerTrial(t *testing.T) {
	// Block claims clip at batch boundaries, so the totals must match for
	// batches smaller than, equal to and straddling a block, and from a
	// resume point that leaves every claim unaligned.
	rules := []stat.StopRule{
		{}, // disabled: straight run
		{Target: 0.4, UseTarget: true, Batch: 10},        // batches smaller than a block
		{Target: 0.4, UseTarget: true, Batch: 100},       // batches straddling blocks
		{HalfWidth: 0.001, Batch: 64},                    // unreachable: runs to MaxTrials
		{Target: 0.4, UseTarget: true, Z: 30, Batch: 48}, // wide band: never decided
	}
	starts := []stat.Proportion{{}, {Trials: 37, Successes: 11}}
	for _, rule := range rules {
		for _, start := range starts {
			checkBlocks(t, exec.Cell{MaxTrials: 500, BaseSeed: 7, Start: start, Rule: rule})
		}
	}
}
