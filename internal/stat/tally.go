package stat

import "fmt"

// Tally is the mergeable raw outcome of one shard of a trial stream:
// success counts bucketed by the stop-rule batch, in trial order. It is
// the unit of result the cluster layer moves between machines — a worker
// executes a shard's full trial range with no stopping rule of its own
// (it cannot know the merged prefix) and returns the per-batch counts;
// the coordinator concatenates tallies in shard order and replays the
// stopping rule over the merged prefixes with Replay.
//
// Bucketing at batch granularity, rather than one count per shard, is
// what preserves the single-process determinism contract: the
// concatenated bucket sequence of a sharded run is exactly the batch
// sequence a local EstimateStreamFrom would have produced, so the
// replayed stop decisions — and therefore the executed trial count and
// the final Proportion — are bit-identical, no matter how many machines
// ran the shards or in what order they finished.
type Tally struct {
	// Trials is the number of trials the shard executed.
	Trials int
	// Batch is the bucket granularity: Successes[i] counts the successes
	// among trials [i*Batch, min((i+1)*Batch, Trials)) of the shard.
	Batch int
	// Successes has ceil(Trials/Batch) entries.
	Successes []int
}

// Total returns the shard's summed success count.
func (t Tally) Total() int {
	sum := 0
	for _, s := range t.Successes {
		sum += s
	}
	return sum
}

// Check validates internal consistency — bucket count and per-bucket
// bounds. The coordinator runs it on every tally a remote worker returns,
// so a malformed or corrupted response is treated as a worker failure
// rather than silently folded into an estimate.
func (t Tally) Check() error {
	if t.Trials < 0 {
		return fmt.Errorf("stat: tally with %d trials", t.Trials)
	}
	if t.Trials == 0 {
		if len(t.Successes) != 0 {
			return fmt.Errorf("stat: empty tally with %d buckets", len(t.Successes))
		}
		return nil
	}
	if t.Batch <= 0 {
		return fmt.Errorf("stat: tally with batch %d", t.Batch)
	}
	want := (t.Trials + t.Batch - 1) / t.Batch
	if len(t.Successes) != want {
		return fmt.Errorf("stat: tally with %d buckets, want %d (%d trials / batch %d)",
			len(t.Successes), want, t.Trials, t.Batch)
	}
	for i, s := range t.Successes {
		size := t.Batch
		if last := t.Trials - i*t.Batch; last < size {
			size = last
		}
		if s < 0 || s > size {
			return fmt.Errorf("stat: tally bucket %d has %d successes of %d trials", i, s, size)
		}
	}
	return nil
}

// Replay folds shard tallies, in shard order, into the running estimate,
// re-applying rule at every bucket boundary exactly as the single-process
// stream does, and returns the resulting Proportion plus whether the
// stream is decided (rule satisfied or maxTrials reached). Buckets beyond
// the deciding boundary are discarded — they are speculative work a
// coordinator dispatched before the decision was known, and counting them
// would make the estimate depend on how much speculation happened.
// onBucket, when non-nil, observes each consumed bucket in trial order —
// the deciding one included, the discarded ones after it excluded — as
// a local run's Cell.OnBatch would.
//
// For the replayed decisions to be bit-identical to a local run resumed
// at start, the tallies must partition the local batch sequence: every
// shard but the last must hold a multiple of the rule's batch size, each
// bucketed at exactly that size (the coordinator enforces both).
func Replay(start Proportion, maxTrials int, rule StopRule, tallies []Tally, onBucket func(trials, successes int)) (Proportion, bool) {
	p := start
	if p.Trials >= maxTrials || (rule.Enabled() && rule.Done(p)) {
		return p, true
	}
	for _, t := range tallies {
		for i, s := range t.Successes {
			size := t.Batch
			if last := t.Trials - i*t.Batch; last < size {
				size = last
			}
			p.Trials += size
			p.Successes += s
			if onBucket != nil {
				onBucket(size, s)
			}
			if p.Trials >= maxTrials || (rule.Enabled() && rule.Done(p)) {
				return p, true
			}
		}
	}
	return p, false
}
