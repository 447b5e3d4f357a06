package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faultcast"
	"faultcast/internal/store"
	"faultcast/internal/telemetry"
)

// sweepSpec is the 40-cell almost-safe grid of both sweep workloads: four
// topologies × {message passing, radio} × omission × five failure
// probabilities, each cell stopping once decided against 1 − 1/n, with
// gridSeed as the sweep seed. Radio-malicious cells are left out: they fall
// back to the bitset core with horizons long enough for one cell to
// dominate the grid. The line has 32 vertices, not 64: the radio line's
// horizon grows with n, and at 64 its p = 0.9 cell alone did over a third
// of the grid's work, so a measured window held only a handful of passes.
func sweepSpec(gridSeed uint64) faultcast.SweepSpec {
	return faultcast.SweepSpec{
		Graphs: []faultcast.SweepGraph{{Spec: "line:32"}, {Spec: "grid:8x8"}, {Spec: "tree:63:2"}, {Spec: "ring:48"}},
		Models: []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Faults: []faultcast.Fault{faultcast.Omission},
		Ps:     []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Seed:   gridSeed,
		Budget: faultcast.CellBudget{Trials: 2000, AlmostSafe: true},
	}
}

// gridVariants is how many sweep seeds a timed sweep run cycles through.
// Early stopping makes a pass's work depend on its seed (which cells need
// extra batches), so a figure from one seed would move with the seed; the
// figures are built from per-variant medians instead (see variantCycle).
const gridVariants = 4

// gridSeed is the sweep seed of variant k of a run.
func gridSeed(seed uint64, k int) uint64 { return splitmix(seed, 0x5eed+uint64(k)) }

// variantCycle sums, over the variants, one pass's decided trials and the
// variant's median pass time in milliseconds. Their ratio is the trials per
// second of both sweep workloads: a burst of interference moves a few
// passes, not the figure.
func variantCycle(trials []int, walls [][]float64) (n int, cycleMS float64) {
	for k := range walls {
		n += trials[k]
		cycleMS += quantile(walls[k], 0.5)
	}
	return n, cycleMS
}

// samples counts the values of all variants.
func samples(xs [][]float64) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}

// sweepPass is one timed run of the grid: CompileSweep plus Run.
type sweepPass struct {
	sp      *faultcast.SweepPlan
	results []faultcast.CellResult
	wall    time.Duration
	compile time.Duration
}

func runSweep(seed uint64, opts ...faultcast.SweepOption) (sweepPass, error) {
	return runSweepWith(seed, func(*faultcast.SweepPlan) []faultcast.SweepOption { return opts })
}

// runSweepWith compiles the grid and runs it with the options optsFor
// derives from the compiled plan (probes need the cell shapes).
func runSweepWith(seed uint64, optsFor func(*faultcast.SweepPlan) []faultcast.SweepOption) (sweepPass, error) {
	start := time.Now()
	sp, err := faultcast.CompileSweep(sweepSpec(seed))
	if err != nil {
		return sweepPass{}, err
	}
	compiled := time.Since(start)
	res, err := sp.Collect(context.Background(), optsFor(sp)...)
	if err != nil {
		return sweepPass{}, err
	}
	return sweepPass{sp: sp, results: res, wall: time.Since(start), compile: compiled}, nil
}

func decidedTrials(res []faultcast.CellResult) int {
	n := 0
	for _, r := range res {
		n += r.Estimate.Trials
	}
	return n
}

// checkCells counts one operation per cell: each must be well formed and
// bit-identical to the reference pass, and when replayed is set it must
// have come entirely from the store (zero trials simulated).
func checkCells(o *outcome, what string, got, ref []faultcast.CellResult, replayed bool) {
	for i := range got {
		g := got[i]
		ok := g.Estimate.Trials > 0 && g.Estimate.Trials <= 2000 && g.Estimate.Succeeds <= g.Estimate.Trials
		if ref != nil {
			ok = ok && i < len(ref) && g.Estimate == ref[i].Estimate
		}
		if replayed {
			ok = ok && g.Resumed == g.Estimate.Trials
		}
		o.op(ok, "%s cell %d: %v (resumed %d)", what, i, g.Estimate, g.Resumed)
	}
}

// cellShapes maps the sweep's exec cell index (its distinct-key group;
// the grid has no duplicate cells) to the cell's shape.
func cellShapes(sp *faultcast.SweepPlan) func(int) shape {
	cells := sp.Cells()
	shapes := make([]shape, len(cells))
	for i := range cells {
		shapes[i] = planShape(cells[i].Plan())
	}
	return func(i int) shape { return shapes[i] }
}

const warmReps = 9

func runSweepAlmostSafe(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceSweepAlmostSafe(cfg)
	}
	o := &outcome{}
	dirs := 0
	freshDir := func() string {
		dirs++
		return filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", dirs))
	}
	if err := o.measureSetup(func() (func(), error) {
		if _, err := store.Open(freshDir()); err != nil {
			return nil, err
		}
		_, err := faultcast.CompileSweep(sweepSpec(gridSeed(cfg.seed, 0)))
		return nil, err
	}); err != nil {
		return nil, err
	}

	// Passes cycle through the grid variants; no pass starts unless the
	// last one would still fit in the measured window.
	ref := make([][]faultcast.CellResult, gridVariants)
	trials := make([]int, gridVariants)
	cold := make([][]float64, gridVariants)
	var warm []float64
	deadline := time.Now().Add(cfg.duration())
	var last time.Duration
	for pass := 0; pass < gridVariants || time.Now().Add(last).Before(deadline); pass++ {
		k := pass % gridVariants
		dir := freshDir()
		t := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		cp, err := runSweep(gridSeed(cfg.seed, k), faultcast.WithSweepTallyStore(st))
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		cold[k] = append(cold[k], ms(last))
		checkCells(o, "cold", cp.results, ref[k], false)
		if ref[k] == nil {
			ref[k], trials[k] = cp.results, decidedTrials(cp.results)
		}
		for w := 0; w < warmReps; w++ {
			t := time.Now()
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			wp, err := runSweep(gridSeed(cfg.seed, k), faultcast.WithSweepTallyStore(st))
			if err != nil {
				return nil, err
			}
			warm = append(warm, ms(time.Since(t)))
			checkCells(o, "warm", wp.results, cp.results, true)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	o.rssMB = peakRSSMB()
	// Every cold pass of a variant decides the same trials (same seed).
	n, cycleMS := variantCycle(trials, cold)
	o.throughput = float64(n) / (cycleMS / 1e3)
	o.latencyMS = quantile(warm, 0.5)
	o.fig("trials_per_s", o.throughput, "1/s")
	o.fig("sweep_s", cycleMS/gridVariants/1e3, "s")
	o.fig("replay_s", o.latencyMS/1e3, "s")
	o.fig("cold_passes", float64(samples(cold)), "count")
	o.fig("decided_trials_per_pass", float64(n)/gridVariants, "count")
	return o, nil
}

// traceSweepAlmostSafe runs the grid cold untraced, cold traced (timed
// store, batch probe, span), warm traced, and cold traced on one worker.
// Every traced pass must match the untraced one bit for bit.
func traceSweepAlmostSafe(cfg config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	dir := func(name string) string { return filepath.Join(cfg.scratch, name) }

	st, err := store.Open(dir("untraced"))
	if err != nil {
		return nil, err
	}
	untraced, err := runSweep(gridSeed(cfg.seed, 0), faultcast.WithSweepTallyStore(st))
	if err != nil {
		return nil, err
	}
	checkCells(o, "untraced", untraced.results, nil, false)

	col := telemetry.NewCollector(4, 1)
	inner, err := store.Open(dir("traced"))
	if err != nil {
		return nil, err
	}
	ts := &timedStore{inner: inner}
	agg := newEngineAgg()
	tr := col.StartTrace("sweep-cold")
	traced, err := runSweepWith(gridSeed(cfg.seed, 0), func(sp *faultcast.SweepPlan) []faultcast.SweepOption {
		return []faultcast.SweepOption{faultcast.WithSweepTallyStore(ts), faultcast.WithSweepSpan(tr.Root()), faultcast.WithSweepProbe(agg.probe(cellShapes(sp)))}
	})
	tr.Finish()
	if err != nil {
		return nil, err
	}
	checkCells(o, "traced cold", traced.results, untraced.results, false)
	appendBytes, err := dirBytes(dir("traced"))
	if err != nil {
		return nil, err
	}

	reopened, err := store.Open(dir("traced"))
	if err != nil {
		return nil, err
	}
	ws := &timedStore{inner: reopened}
	wtr := col.StartTrace("sweep-warm")
	warm, err := runSweep(gridSeed(cfg.seed, 0), faultcast.WithSweepTallyStore(ws), faultcast.WithSweepSpan(wtr.Root()))
	wtr.Finish()
	if err != nil {
		return nil, err
	}
	checkCells(o, "traced warm", warm.results, untraced.results, true)

	one, err := store.Open(dir("one-worker"))
	if err != nil {
		return nil, err
	}
	// The one-worker pass carries a probe too, so it is instrumented like
	// the pool pass it is compared with.
	oneAgg := newEngineAgg()
	single, err := runSweepWith(gridSeed(cfg.seed, 0), func(sp *faultcast.SweepPlan) []faultcast.SweepOption {
		return []faultcast.SweepOption{faultcast.WithSweepTallyStore(one), faultcast.WithSweepWorkers(1), faultcast.WithSweepProbe(oneAgg.probe(cellShapes(sp)))}
	})
	if err != nil {
		return nil, err
	}
	checkCells(o, "one-worker cold", single.results, untraced.results, false)

	agg.fill(o.layers, traced.wall-traced.compile, workers())
	o.layers["exec.scaling_eff"] = single.wall.Seconds() / (float64(workers()) * traced.wall.Seconds())
	o.layers["faultcast.compile_s"] = traced.compile.Seconds()
	o.layers["store.append_calls"] = float64(ts.appends)
	o.layers["store.append_s"] = ts.appendTime.Seconds()
	o.layers["store.append_bytes"] = float64(appendBytes)
	o.layers["store.load_calls"] = float64(ws.loads)
	o.layers["store.load_s"] = ws.loadTime.Seconds()
	o.layers["store.trials_loaded"] = float64(ws.trialsLoaded)
	o.layers["telemetry.overhead_pct"] = 100 * (traced.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()
	o.layers["telemetry.traces_started"] = float64(col.Started())
	spans := 0
	walk(tr.Root(), func(*telemetry.Span) { spans++ })
	walk(wtr.Root(), func(*telemetry.Span) { spans++ })
	o.layers["telemetry.spans_per_request"] = float64(spans) / 2
	return o, writeSpans(cfg, []*telemetry.Trace{tr, wtr})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
