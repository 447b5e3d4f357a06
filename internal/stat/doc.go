// Package stat provides the statistical machinery of the experiment
// harness and the serving layer: Wilson confidence intervals, the
// early-stopping rule (StopRule), the mergeable per-batch Tally with its
// Replay, binomial/Chernoff tail helpers (also used by the Kučera
// composition calculus), the radio feasibility threshold solver, and
// least-squares fits for scaling experiments.
//
// The trial types (Trial, TrialBlock and their makers) are defined here,
// but parallel estimation lives in internal/exec, the one worker pool.
// This package keeps only sequential loops: the reference estimators
// Estimate and EstimateStreamFrom, which exec's tests use as their
// oracle, and MeanStd.
//
// # Invariants
//
//   - The package starts no goroutines: every loop here runs in trial
//     order on the caller's goroutine, so MeanStd's floating-point sums
//     never depend on which worker finished first.
//   - Replay is the only merge of shard tallies: the cluster coordinator
//     folds each contiguous tally through it, and its onBucket hook sees
//     exactly the consumed buckets (TestReplayDiscardsSpeculation).
//   - Estimates are a deterministic function of (maxTrials, baseSeed,
//     rule): trials are assigned seeds baseSeed+i and stopping is checked
//     only at fixed batch boundaries, so the executed trials are always a
//     prefix of the seed sequence (TestEstimateStreamStopsPrefix).
//   - Resuming a stream from a prior Proportion visits exactly the seed
//     suffix a one-shot run of the combined budget would, and a start
//     that already satisfies the rule runs zero trials
//     (TestEstimateStreamFromResume) — the contract faultcastd's
//     confidence-aware cache reuse and refinement are built on.
//   - Stopping on a target is a sequential test on a band strictly wider
//     than the reported 95% interval, so an early-stopped estimate is
//     always decided the same way as its reported interval (see
//     StopRule).
package stat
