package stat

// StopRule configures optional early stopping for a streaming estimate.
// The zero value never stops early (all requested trials run).
//
// Stopping decisions are made on the Wilson interval at Z after every
// batch, so the executed trial count is always a deterministic function of
// (rule, baseSeed, maxTrials) — never of scheduling or worker count.
type StopRule struct {
	// Target, active when UseTarget is set, stops the stream once the
	// interval is decided against it: entirely above (the scenario is
	// almost-safe with confidence) or entirely below (it is not). Threshold
	// sweeps use the paper's almost-safety bound 1 − 1/n here, so points
	// far from the p* frontier stop after a handful of batches.
	Target    float64
	UseTarget bool
	// HalfWidth, when positive, stops the stream once the 95% (z = 1.96)
	// interval half-width shrinks to it — "estimate until this precise".
	// It always reads the 95% band, independent of Z, since it bounds the
	// precision of the reported interval rather than deciding a test.
	HalfWidth float64
	// Z is the interval width used by the target check (default 1.96,
	// i.e. 95%). Stopping is a sequential test: the band is consulted
	// after every batch, so the chance that SOME look is momentarily
	// decided exceeds the band's nominal level. Callers whose downstream
	// verdict reads a z-band should stop on a strictly wider one.
	Z float64
	// Batch is the number of trials between stopping checks (default 32 —
	// a fixed constant, so the executed trial count does not depend on
	// the machine's core count).
	Batch int
}

// Enabled reports whether the rule can ever stop a stream early.
func (r StopRule) Enabled() bool { return r.UseTarget || r.HalfWidth > 0 }

// Done reports whether the estimate so far satisfies the rule.
func (r StopRule) Done(p Proportion) bool {
	if p.Trials == 0 {
		return false
	}
	if r.UseTarget {
		z := r.Z
		if z == 0 {
			z = 1.96
		}
		lo, hi := p.Wilson(z)
		if lo > r.Target || hi < r.Target {
			return true
		}
	}
	if r.HalfWidth > 0 {
		lo, hi := p.Wilson(1.96)
		if (hi-lo)/2 <= r.HalfWidth {
			return true
		}
	}
	return false
}

// EstimateStreamFrom is the sequential reference estimator. It runs up to
// maxTrials trials with seeds baseSeed+start.Trials, baseSeed+start.Trials+1,
// ... on one Trial built by newTrial, checks rule after every batch of
// rule.Batch trials, and returns the combined Proportion once it satisfies
// rule or reaches maxTrials total trials. start is taken to be the outcome
// of trials baseSeed+0 .. baseSeed+start.Trials-1. If start already
// satisfies the rule (or start.Trials >= maxTrials), it is returned
// unchanged and no trial is built or run — the "cached estimate already
// good enough" fast path of the serving layer.
//
// The executed trials are always a prefix of the seed sequence, and
// topping up in several steps visits the same seeds as one large run
// (stopping decisions are made at the resumption points in addition to
// batch boundaries, so a resumed stream may stop at start.Trials + k·batch
// rather than a global batch multiple). internal/exec's pool honors the
// same contract with any number of workers; this loop is its oracle.
func EstimateStreamFrom(start Proportion, maxTrials int, baseSeed uint64, rule StopRule, newTrial TrialMaker) Proportion {
	p := start
	if p.Trials >= maxTrials || rule.Done(p) {
		return p
	}
	batch := maxTrials // no rule: one batch, no stop checks
	if rule.Enabled() {
		batch = rule.Batch
		if batch <= 0 {
			batch = 32
		}
	}
	trial := newTrial()
	for p.Trials < maxTrials && !rule.Done(p) {
		for end := min(p.Trials+batch, maxTrials); p.Trials < end; p.Trials++ {
			if trial(baseSeed + uint64(p.Trials)) {
				p.Successes++
			}
		}
	}
	return p
}
