package exec

import (
	"context"

	"faultcast/internal/stat"
)

// Dispatcher abstracts where a schedule of estimation cells executes: the
// in-process worker pool (Local) or a fleet of remote workers behind a
// cluster coordinator. Plan.Estimate and SweepPlan.Run are written
// against this interface, so the two are interchangeable — and because
// every implementation must honor the batch-boundary determinism
// contract, switching dispatchers can never change a result bit, only
// where the trials burn CPU.
//
// Implementations must mirror Run's semantics exactly: onDone called
// once per completed cell, serialized, in completion order, from
// whatever goroutine finished the cell; on ctx cancellation undecided
// cells are abandoned unreported and ctx.Err() is returned.
type Dispatcher interface {
	Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error
}

// Local is the in-process Dispatcher: the bounded work-stealing pool of
// Run, unchanged. It is the zero-configuration default everywhere a
// dispatcher is accepted.
type Local struct{}

// Run implements Dispatcher on the in-process pool.
func (Local) Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error {
	return Run(ctx, workers, cells, onDone)
}

// RunShard executes trials [0, trials) with seeds baseSeed+0 ..
// baseSeed+trials-1 on Run's pool of `workers` goroutines (<= 0 means
// GOMAXPROCS) and tallies successes per batch-sized bucket — the
// worker-side primitive of the cluster shard protocol, also used by the
// coordinator's local-failover path. batch <= 0 buckets the whole shard
// as one. newBlock may be nil; when set, trials run in lane blocks.
//
// The tally is a pure function of (newTrial, baseSeed, trials, batch):
// it is one un-ruled cell whose buckets are fixed by trial index, so
// neither the worker count, the block claims, nor scheduling order can
// change a bucket. There is deliberately no stopping rule here — a shard
// cannot know the merged prefix it will land in, so stop decisions
// belong exclusively to the coordinator's replay (stat.Replay).
func RunShard(workers int, baseSeed uint64, trials, batch int, newTrial stat.TrialMaker, newBlock stat.TrialBlockMaker) stat.Tally {
	if trials <= 0 {
		return stat.Tally{}
	}
	if batch <= 0 || batch > trials {
		batch = trials
	}
	t := stat.Tally{Trials: trials, Batch: batch, Successes: make([]int, 0, (trials+batch-1)/batch)}
	EstimateCell(workers, Cell{
		MaxTrials: trials, BaseSeed: baseSeed, Bucket: batch,
		NewTrial: newTrial, NewBlock: newBlock,
		OnBatch: func(_, successes int) { t.Successes = append(t.Successes, successes) },
	})
	return t
}
