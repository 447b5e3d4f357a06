// Package sim is the synchronous network simulator underlying every
// experiment: a round-based engine over an undirected graph supporting the
// paper's two communication models (message passing and radio, including
// the radio collision rule) and its fault scenarios (node-omission,
// malicious, and limited-malicious transmission failures, each hitting a
// node's transmitter independently with probability p per step).
//
// Two engines share identical semantics: a fast sequential engine used by
// the Monte-Carlo harness, and a goroutine-per-node engine with barrier
// synchronization that mirrors the paper's "one process per node" model.
// Both execute one word-parallel round core (internal/bitset): fault
// sampling fills a per-round fault mask with batched Bernoulli draws,
// omission silencing is a mask intersection, broadcast delivery walks
// cached adjacency bitset rows, and the radio collision rule ("heard iff
// silent and exactly one neighbor transmits") is computed with
// seen-once/seen-twice accumulator sets. The pre-bitset scalar
// implementation is retained behind Config.ScalarCore (faultcast's public
// Config.Core = CoreScalar lowers to it) as the reference semantics — not
// a tuning knob, a falsifier.
//
// Trial streams (many seeds, one configuration) should use a Runner,
// which validates the configuration once and rewinds a single execution
// state per trial instead of reallocating it.
//
// # Invariants
//
//   - Bitset core ≡ scalar core ≡ concurrent engine, bit for bit over
//     full execution histories, across a randomized matrix of ~200
//     configurations (model × fault × adversary × graph family × p ×
//     seed): TestDifferentialBitsetVsScalar,
//     TestDifferentialSequentialVsConcurrent, TestEnginesEquivalent in
//     differential_test.go and engine_test.go.
//   - A reused Runner is bit-identical to a fresh Run with the same seed,
//     and results never alias reused state: TestRunnerMatchesRun,
//     TestRunnerResultsDoNotAlias, TestDifferentialRunnerReuse.
//   - One fixed-seed run per experiment family is pinned round by round
//     (fault-set hash, delivery count, informed-set hash) against golden
//     digests under testdata/golden: TestGoldenTraces (regenerate
//     intentional behavior changes with -update).
//   - The omission fast path allocates nothing per round at steady state:
//     TestOmissionFastPathZeroAlloc in alloc_test.go.
package sim
