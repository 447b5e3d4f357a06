package stat

import "math"

// Trial is one Monte-Carlo trial: it runs an experiment with the given
// seed and reports success. Each trial derives all its randomness from
// its seed, so trials are independent and their verdicts do not depend
// on which worker runs them or in what order.
type Trial func(seed uint64) bool

// TrialMaker builds the Trial for one worker goroutine. Per-worker mutable
// state — typically a reusable simulation runner whose buffers persist
// across the worker's whole trial stream — lives in the returned closure,
// which is only ever called from that single worker.
type TrialMaker func() Trial

// BlockWidth is the number of trials a TrialBlock can run per call — one
// bit lane per trial in a machine word.
const BlockWidth = 64

// TrialBlock runs up to BlockWidth consecutive trials — seeds baseSeed+0
// .. baseSeed+count-1 — and returns their success verdicts as a bit mask
// (bit i = trial baseSeed+i succeeded; bits >= count are zero). Each
// trial's verdict must be the pure function of its own seed that the
// equivalent Trial computes: callers claim blocks from arbitrary (not
// necessarily aligned) offsets of a seed sequence and mix block and
// per-trial execution freely, relying on bit-identical verdicts.
//
// Like Trial, a TrialBlock may hold reusable per-worker state and is only
// ever called from the single worker that owns it.
type TrialBlock func(baseSeed uint64, count int) uint64

// TrialBlockMaker builds the TrialBlock for one worker goroutine.
type TrialBlockMaker func() TrialBlock

// Estimate runs `trials` independent trials with seeds baseSeed+0,
// baseSeed+1, ... one after another and returns the estimated success
// proportion. It is the plain sequential loop; parallel estimation runs
// on the internal/exec worker pool, which produces the same Proportion.
func Estimate(trials int, baseSeed uint64, trial Trial) Proportion {
	return EstimateStreamFrom(Proportion{}, trials, baseSeed, StopRule{}, func() Trial { return trial })
}

// Measure is one numeric Monte-Carlo trial (e.g. broadcast completion
// time); ok=false excludes the trial from the aggregate.
type Measure func(seed uint64) (value float64, ok bool)

// MeanStd runs trials that produce a numeric measurement (e.g. broadcast
// completion time) one after another, with seeds baseSeed+0,
// baseSeed+1, ..., and returns the sample mean and standard deviation,
// summed in trial order. Trials returning ok=false (e.g. failed
// broadcasts with no completion time) are excluded from the aggregate
// but counted in failed. Parallel callers run the trials on the
// internal/exec pool first and hand MeanStd a lookup of the results.
func MeanStd(trials int, baseSeed uint64, measure Measure) (mean, std float64, failed int) {
	var values []float64
	for i := 0; i < trials; i++ {
		if v, ok := measure(baseSeed + uint64(i)); ok {
			values = append(values, v)
		}
	}
	failed = trials - len(values)
	if len(values) == 0 {
		return 0, 0, failed
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	if len(values) > 1 {
		std = math.Sqrt(ss / float64(len(values)-1))
	}
	return mean, std, failed
}
