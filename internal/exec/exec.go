// Package exec schedules Monte-Carlo trial streams onto one bounded
// worker pool shared across many concurrent estimation cells.
//
// This package is the only worker pool in the repo: boolean trials,
// lane blocks, the cluster's shard tallies (RunShard) and the harness's
// numeric measures all run on Run. A pool per estimate would make a
// parameter sweep over k cells pay k pool lifecycles, and leave every
// cell's stragglers (the tail of a batch, the wind-down after an early
// stop) holding up all other cells' work. Instead, callers submit all
// cells at once, a single pool of workers multiplexes across them, and
// the moment one cell's interval is decided its workers flow to the
// cells still undecided. Intra-cell work is still batched (stopping
// decisions happen only at batch boundaries), but batches from different
// cells interleave freely.
//
// Determinism contract — identical to stat.EstimateStreamFrom's: the
// trials a cell executes are always a prefix of its seed sequence
// BaseSeed+Start.Trials, BaseSeed+Start.Trials+1, ... whose length is
// decided only at fixed batch boundaries, so each cell's resulting
// Proportion is a pure function of (cell spec), never of the worker
// count, the co-scheduled cells, or scheduling order. Success counting
// is order-independent, so cross-cell interleaving cannot change any
// result bit.
package exec

import (
	"context"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"time"

	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// BatchStat is the per-batch timing attribution delivered to Cell.Probe:
// where one folded batch's wall-clock went. Engine is the time spent
// inside trial/block calls, summed over every worker that contributed to
// the batch — with several workers on one batch it can exceed Wall, the
// open-to-fold span of the batch; the difference between Wall and
// Engine/workers is scheduler overhead plus cross-cell interference.
type BatchStat struct {
	Cell      int // index of the cell in the schedule
	Trials    int
	Successes int
	Engine    time.Duration
	Wall      time.Duration
}

// Cell is one schedulable estimation stream: up to MaxTrials trials with
// seeds BaseSeed+i, resumed from Start, stopped early once Rule is
// satisfied at a batch boundary.
type Cell struct {
	// MaxTrials is the total trial budget, including Start.Trials.
	MaxTrials int
	// BaseSeed is the seed of trial 0; trial i runs with BaseSeed+i.
	BaseSeed uint64
	// Start is the resume point: it is taken to be the outcome of trials
	// 0..Start.Trials-1, and new trials continue the seed sequence there.
	// A Start that already satisfies Rule (or exhausts MaxTrials) completes
	// the cell with zero new trials — the cache-hit fast path.
	Start stat.Proportion
	// Rule is the early-stopping rule; the zero value runs all trials.
	Rule stat.StopRule
	// Bucket, when positive and Rule is disabled, sets the granularity
	// OnBatch observes: the un-ruled cell still runs as one whole-budget
	// batch (there are no stop decisions to wait for, so block claims
	// are never clipped), but its successes are tallied per Bucket-sized
	// run of trials from Start.Trials on, and the buckets go to OnBatch
	// in trial order when the cell completes. A tally store persists
	// un-ruled streams at the same bucket size ruled ones replay at.
	// Ignored when Rule is enabled: the rule's own batch governs there.
	Bucket int
	// OnBatch, when non-nil, observes every batch the cell folds in, in
	// trial order: the batch's own trial and success counts, called once
	// per batch boundary before the stop decision (for a bucketed
	// un-ruled cell, once per bucket at completion), serialized per cell
	// (under the scheduler lock — keep it cheap; buffer, don't block).
	// Batches of a ruled cell later abandoned by cancellation are still
	// reported; consumers that persist must gate on cell completion.
	// The resume prefix in Start is prior work, not a fold — it is never
	// reported.
	OnBatch func(trials, successes int)
	// Probe, when non-nil, observes per-batch timing attribution (see
	// BatchStat), called at the same boundary as OnBatch, after it, under
	// the scheduler lock — keep it cheap. Timing is gathered only when a
	// probe is attached, and it is purely observational: batch sizes,
	// seeds, stop decisions, and tallies are identical with and without
	// it.
	Probe func(BatchStat)
	// Trace, when non-nil, is the parent span for dispatcher-level
	// telemetry. The in-process pool ignores it (Probe already attributes
	// its batches); remote dispatchers hang one child span per shard off
	// it, carrying worker identity, retries, and the worker-side subtree.
	Trace *telemetry.Span
	// NewTrial builds a worker-private trial function. It is called at
	// most once per (worker, SharedKey) pair, so per-trial state — a
	// reusable engine runner — persists across every batch a worker
	// executes for this cell.
	NewTrial stat.TrialMaker
	// NewBlock, when non-nil, builds a worker-private block-trial function
	// whose verdicts are bit-identical to NewTrial's over the same seeds
	// (the lane-transposed engine core). Workers then claim trials in
	// stat.BlockWidth-sized chunks, clipped to a ruled cell's batch
	// boundaries (an un-ruled cell is one batch, Bucket or not) — so
	// batch totals, stop decisions, and the final Proportion are
	// unchanged; only the per-trial cost drops. NewTrial must still be
	// set: dispatchers without block support fall back to it.
	NewBlock stat.TrialBlockMaker
	// SharedKey, when non-empty, lets a worker reuse one Trial across all
	// cells carrying the same key. Cells may share a key only when their
	// NewTrial functions are interchangeable — e.g. cells compiled from
	// the same plan, whose trials differ only in the seed argument.
	SharedKey string
	// Scenario is an opaque wire description of the cell's computation,
	// consumed by remote Dispatchers (the cluster coordinator ships it to
	// workers, which recompile the plan there). The in-process Dispatcher
	// ignores it; NewTrial and NewBlock remain authoritative locally —
	// including for a remote dispatcher's failover path.
	Scenario any
}

// Run executes the cells on one pool of `workers` goroutines (<= 0 means
// GOMAXPROCS) and calls onDone exactly once per completed cell with its
// final Proportion. onDone calls are serialized (no two run at once) and
// arrive in completion order, from worker goroutines, while other cells
// are still running — a streaming consumer can forward them immediately.
//
// Run blocks until every cell completes or ctx is cancelled. On
// cancellation it stops claiming new trials, waits for in-flight trials
// to finish, and returns ctx.Err(); cells not already decided at that
// point are abandoned unreported — a truncated estimate is never
// emitted as a decided one.
func Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error {
	if len(cells) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &sched{cells: make([]cellState, len(cells)), onDone: onDone}
	s.cond = sync.NewCond(&s.mu)
	var immediate []int
	for i := range cells {
		c := &cells[i]
		cs := &s.cells[i]
		cs.spec = c
		cs.trials = c.Start.Trials
		cs.successes = c.Start.Successes
		cs.next = c.Start.Trials
		if cs.trials >= c.MaxTrials || (c.Rule.Enabled() && c.Rule.Done(stat.Proportion{Successes: cs.successes, Trials: cs.trials})) {
			cs.done = true
			immediate = append(immediate, i)
			continue
		}
		cs.batchEnd = cs.next + batchSize(c, cs.trials)
		if c.Bucket > 0 && c.OnBatch != nil && !c.Rule.Enabled() {
			cs.buckets = make([]int, (cs.batchEnd-cs.next+c.Bucket-1)/c.Bucket)
		}
		if c.Probe != nil {
			cs.opened = time.Now()
		}
		s.active++
	}
	for _, i := range immediate {
		s.emit(i, stat.Proportion{Successes: s.cells[i].successes, Trials: s.cells[i].trials})
	}
	if s.active == 0 {
		return ctx.Err()
	}

	var stopWatch chan struct{}
	if ctx.Done() != nil {
		stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cancelled = true
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(w)
		}(w)
	}
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	s.mu.Lock()
	abandoned := s.active
	s.mu.Unlock()
	if abandoned > 0 {
		return ctx.Err()
	}
	return nil
}

// EstimateCell runs a single cell to completion on the in-process pool —
// a one-cell schedule for callers that estimate one stream outside a
// Plan (the harness's hand-built experiments and examples).
// Plan.EstimateFrom goes through a Dispatcher instead, so a cluster can
// take its place.
func EstimateCell(workers int, c Cell) stat.Proportion {
	var out stat.Proportion
	// Background context: a lone estimate has no cancellation surface.
	_ = Run(context.Background(), workers, []Cell{c}, func(_ int, p stat.Proportion) { out = p })
	return out
}

// batchSize mirrors stat.StopRule's batching: with a stopping rule,
// trials run in fixed batches (Rule.Batch, default 32) so the executed
// count is machine-independent; without one, the whole remaining budget
// is a single batch (Cell.Bucket only splits how it is reported).
func batchSize(c *Cell, trials int) int {
	rest := c.MaxTrials - trials
	if !c.Rule.Enabled() {
		return rest
	}
	b := c.Rule.Batch
	if b <= 0 {
		b = 32
	}
	return min(b, rest)
}

// cellState is the scheduler-private progress of one cell. trials and
// successes are decided totals (through the last completed batch,
// including the cell's Start); the open batch accumulates separately and
// is folded in only when its last trial lands.
type cellState struct {
	spec      *Cell
	done      bool
	trials    int
	successes int
	batchEnd  int // open batch: trial indices [next-inflight..batchEnd)
	next      int // next unclaimed trial index
	inflight  int // claimed, not yet reported
	batchSucc int
	// buckets, for a bucketed un-ruled cell with an OnBatch, holds the
	// successes per Cell.Bucket trials from Start.Trials on; nil otherwise.
	buckets []int
	// Probe-only timing state: engineNs accumulates in-engine time of the
	// open batch, opened is when it opened. Untouched without a Probe.
	engineNs int64
	opened   time.Time
}

type sched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	cells     []cellState
	active    int // cells not done
	cancelled bool

	emitMu sync.Mutex
	onDone func(i int, p stat.Proportion)
}

func (s *sched) emit(i int, p stat.Proportion) {
	if s.onDone == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.onDone(i, p)
}

// worker claims work from any cell with unclaimed trials, preferring the
// cell at its cursor (workers start spread across cells and stay with a
// cell while it has work — the work-stealing shape: a worker scans
// forward and takes from the next busy cell only when its own runs dry or
// stops early). Cells with a NewBlock are claimed in stat.BlockWidth-sized
// chunks (clipped to the open batch), others one trial at a time; either
// way the claimed range folds into the same batch totals, so results are
// identical.
func (s *sched) worker(w int) {
	trials := map[string]stat.Trial{}
	blocks := map[string]stat.TrialBlock{}
	cursor := w % len(s.cells)
	for {
		s.mu.Lock()
		var cs *cellState
		ci := -1
		for !s.cancelled && s.active > 0 {
			n := len(s.cells)
			for k := 0; k < n; k++ {
				i := (cursor + k) % n
				c := &s.cells[i]
				if !c.done && c.next < c.batchEnd {
					cs, ci = c, i
					cursor = i
					break
				}
			}
			if cs != nil {
				break
			}
			// No claimable trial anywhere: either every open batch is
			// fully in flight (its completion will open the next one and
			// broadcast) or all cells are done. Sleep until then.
			s.cond.Wait()
		}
		if cs == nil {
			s.mu.Unlock()
			return
		}
		spec := cs.spec
		claim := 1
		if spec.NewBlock != nil {
			claim = min(cs.batchEnd-cs.next, stat.BlockWidth)
		}
		seedIdx := cs.next
		cs.next += claim
		cs.inflight += claim
		s.mu.Unlock()

		key := spec.SharedKey
		if key == "" {
			key = "#" + strconv.Itoa(ci)
		}
		var engStart time.Time
		if spec.Probe != nil {
			engStart = time.Now()
		}
		var word uint64 // bit i = trial seedIdx+i succeeded
		if spec.NewBlock != nil {
			block := blocks[key]
			if block == nil {
				block = spec.NewBlock()
				blocks[key] = block
			}
			word = block(spec.BaseSeed+uint64(seedIdx), claim)
		} else {
			trial := trials[key]
			if trial == nil {
				trial = spec.NewTrial()
				trials[key] = trial
			}
			if trial(spec.BaseSeed + uint64(seedIdx)) {
				word = 1
			}
		}

		var engNs int64
		if spec.Probe != nil {
			engNs = time.Since(engStart).Nanoseconds()
		}

		s.mu.Lock()
		cs.inflight -= claim
		cs.batchSucc += bits.OnesCount64(word)
		cs.engineNs += engNs
		if cs.buckets != nil {
			cs.split(seedIdx, claim, word)
		}
		var finished *stat.Proportion
		if cs.next == cs.batchEnd && cs.inflight == 0 {
			// Batch boundary: fold it in and decide.
			switch {
			case cs.buckets != nil:
				for k, succ := range cs.buckets {
					first := spec.Start.Trials + k*spec.Bucket
					spec.OnBatch(min(spec.Bucket, cs.batchEnd-first), succ)
				}
			case spec.OnBatch != nil:
				spec.OnBatch(cs.batchEnd-cs.trials, cs.batchSucc)
			}
			if spec.Probe != nil {
				spec.Probe(BatchStat{
					Cell:      ci,
					Trials:    cs.batchEnd - cs.trials,
					Successes: cs.batchSucc,
					Engine:    time.Duration(cs.engineNs),
					Wall:      time.Since(cs.opened),
				})
				cs.engineNs = 0
				cs.opened = time.Now()
			}
			cs.trials = cs.batchEnd
			cs.successes += cs.batchSucc
			cs.batchSucc = 0
			p := stat.Proportion{Successes: cs.successes, Trials: cs.trials}
			switch {
			case cs.trials >= spec.MaxTrials || (spec.Rule.Enabled() && spec.Rule.Done(p)):
				cs.done = true
				s.active--
				finished = &p
			case s.cancelled:
				// Wind-down: the cell is mid-stream, neither budget nor
				// rule satisfied. Close it WITHOUT emitting — it stays in
				// the active count, so Run reports ctx.Err() instead of
				// passing a truncated estimate off as a decided one.
				cs.done = true
			default:
				cs.batchEnd = cs.next + batchSize(spec, cs.trials)
			}
			// Either way there is news: fresh trials to claim, or one
			// fewer active cell (possibly zero, releasing all waiters).
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if finished != nil {
			s.emit(ci, *finished)
		}
	}
}

// split adds a claim's verdict word — trials [first, first+n) — to the
// Cell.Bucket-sized buckets those trials fall in, masking the word at
// every bucket boundary it straddles.
func (cs *cellState) split(first, n int, word uint64) {
	size := cs.spec.Bucket
	rel := first - cs.spec.Start.Trials
	for off := 0; off < n; {
		b := (rel + off) / size
		lim := min((b+1)*size-rel, n)
		mask := ^uint64(0)
		if lim < 64 {
			mask = 1<<uint(lim) - 1
		}
		mask &^= 1<<uint(off) - 1
		cs.buckets[b] += bits.OnesCount64(word & mask)
		off = lim
	}
}
