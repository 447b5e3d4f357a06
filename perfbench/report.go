package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"faultcast/internal/telemetry"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// figure is one of a workload's own end-to-end numbers, under the name
// the benchmark documentation uses for it (sweep_s, serve_p99_ms, ...).
type figure struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run hands back: operation counts, set-up
// samples, the workload's throughput and latency slots, its peak memory,
// its named figures and, on a traced run, the per-layer values.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	setup     []time.Duration

	throughput float64 // throughput_per_s
	latencyMS  float64 // latency_ms
	// rssMB is the peak resident set, read when the measured phases end
	// (before untimed output checks add their own allocations).
	rssMB float64

	figures []figure
	layers  map[string]float64
}

// op counts one operation and, when !ok, one failure described by the
// format arguments (the first few descriptions are printed).
func (o *outcome) op(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run times its set-up; setup_s is the
// median.
const setupReps = 31

// measureSetup times setup setupReps times. A collection before each
// repetition keeps the previous one's garbage from being collected inside
// the next one's timed window; undo, when setup returns one, runs untimed.
func (o *outcome) measureSetup(setup func() (undo func(), err error)) error {
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t := time.Now()
		undo, err := setup()
		d := time.Since(t)
		if undo != nil {
			undo()
		}
		if err != nil {
			return err
		}
		o.setup = append(o.setup, d)
	}
	return nil
}

func (o *outcome) fig(name string, value float64, unit string) {
	o.figures = append(o.figures, figure{name, value, unit})
}

// endToEnd lists the metrics of an untraced run. The last two are slots
// each workload fills with its own headline figures (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
}

// layerDef is one per-layer metric of a traced run: its unit, whether it
// is computed rather than measured, and the end-to-end figure it moves.
type layerDef struct {
	name     string
	unit     string
	computed bool
	moves    string
}

var layerDefs = []layerDef{
	{"rng.words", "count", true, "trials_per_s (estimate-fixed), then sweep_s"},
	{"rng.ns_per_word", "ns", true, "trials_per_s (estimate-fixed), then sweep_s"},
	{"rng.share", "ratio", true, "trials_per_s (estimate-fixed), then sweep_s"},
	{"sim.engine_s", "s", false, "trials_per_s, estimate_p50_ms, serve_cold_p50_ms"},
	{"sim.block_calls", "count", true, "trials_per_s, estimate_p50_ms, serve_cold_p50_ms"},
	{"exec.batches", "count", false, "sweep_s (sweep-almost-safe)"},
	{"exec.overhead_s", "s", false, "sweep_s (sweep-almost-safe)"},
	{"exec.lane_fill", "ratio", true, "sweep_s (sweep-almost-safe)"},
	{"exec.scaling_eff", "ratio", false, "sweep_s (sweep-almost-safe)"},
	{"faultcast.compile_s", "s", false, "setup_s, replay_s"},
	{"store.append_calls", "count", false, "sweep_s (cold)"},
	{"store.append_s", "s", false, "sweep_s (cold)"},
	{"store.append_bytes", "B", false, "sweep_s (cold)"},
	{"store.load_calls", "count", false, "replay_s"},
	{"store.load_s", "s", false, "replay_s"},
	{"store.trials_loaded", "count", false, "replay_s"},
	{"service.cache_hits", "count", false, "serve_hot_p50_ms"},
	{"service.executions", "count", false, "serve_cold_p50_ms"},
	{"service.coalesced", "count", false, "serve_hot_p50_ms"},
	{"service.plan_compiles", "count", false, "serve_cold_p50_ms"},
	{"service.trials_simulated", "count", false, "serve_cold_p50_ms"},
	{"service.rejected", "count", false, "serve_p99_ms, serve_capacity_rps"},
	{"service.admission_ms.p50", "ms", false, "serve_p99_ms, serve_capacity_rps"},
	{"service.admission_ms.p99", "ms", false, "serve_p99_ms, serve_capacity_rps"},
	{"service.plan_ms.p50", "ms", false, "serve_cold_p50_ms"},
	{"service.plan_ms.p99", "ms", false, "serve_cold_p50_ms"},
	{"service.compile_ms.p50", "ms", false, "serve_cold_p50_ms"},
	{"service.compile_ms.p99", "ms", false, "serve_cold_p50_ms"},
	{"service.execute_ms.p50", "ms", false, "serve_cold_p50_ms"},
	{"service.execute_ms.p99", "ms", false, "serve_cold_p50_ms"},
	{"service.handler_ms.p50", "ms", false, "serve_p50_ms"},
	{"service.handler_ms.p99", "ms", false, "serve_p99_ms"},
	{"service.residual_ms.p50", "ms", false, "serve_hot_p50_ms"},
	{"service.residual_ms.p99", "ms", false, "serve_p99_ms"},
	{"telemetry.traces_started", "count", false, "serve_capacity_rps"},
	{"telemetry.spans_per_request", "count", false, "serve_capacity_rps"},
	{"telemetry.overhead_pct", "%", false, "every figure of the workload"},
	{"cluster.shards", "count", false, "sweep_s, trials_per_s (sweep-cluster)"},
	{"cluster.shard_rtt_ms.p50", "ms", false, "sweep_s, trials_per_s (sweep-cluster)"},
	{"cluster.shard_rtt_ms.p99", "ms", false, "sweep_s, trials_per_s (sweep-cluster)"},
	{"cluster.worker_shard_ms.p50", "ms", false, "sweep_s, trials_per_s (sweep-cluster)"},
	{"cluster.bytes_out", "B", false, "sweep_s (sweep-cluster)"},
	{"cluster.bytes_in", "B", false, "sweep_s (sweep-cluster)"},
	{"cluster.encode_us", "us", false, "sweep_s (sweep-cluster)"},
	{"cluster.useful_ratio", "ratio", false, "trials_per_s (sweep-cluster)"},
	{"cluster.retries", "count", false, "sweep_s (sweep-cluster); must be 0"},
	{"cluster.failovers", "count", false, "sweep_s (sweep-cluster); must be 0"},
	{"load.late_p99_ms", "ms", false, "validity of serve-mix figures"},
}

// result renders the outcome as the final JSON line of standard output.
func (o *outcome) result(cfg config) result {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for _, d := range layerDefs {
			res.Metrics[d.name] = metric{o.layers[d.name], d.unit}
		}
		return res
	}
	values := map[string]float64{
		"setup_s":          medianDur(o.setup).Seconds(),
		"peak_rss_mb":      o.rssMB,
		"throughput_per_s": o.throughput,
		"latency_ms":       o.latencyMS,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res
}

// printTable writes the human-readable report that precedes the result
// line: the workload's named figures (untraced) or the per-layer table
// with each metric's mapped end-to-end figure (traced).
func printTable(w io.Writer, cfg config, o *outcome) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, workers(), runtime.Version())
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	if cfg.trace {
		for _, d := range layerDefs {
			tag := "measured"
			if d.computed {
				tag = "computed"
			}
			fmt.Fprintf(w, "  %-30s %16.6g %-6s %-8s -> %s\n", d.name, o.layers[d.name], d.unit, tag, d.moves)
		}
	} else {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", "setup_s", medianDur(o.setup).Seconds(), "s")
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", "peak_rss_mb", o.rssMB, "MB")
		for _, f := range o.figures {
			fmt.Fprintf(w, "  %-30s %16.6g %s\n", f.name, f.value, f.unit)
		}
	}
	fmt.Fprintf(w, "  %-30s %16.6g %s (%d of %d operations)\n", "fail_share", share, "ratio", o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// splitmix returns the i-th output of a splitmix64 stream seeded by seed:
// the benchmark derives every generated input from --seed through it.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// writeSpans writes the run's span trees, kept in memory until now, as
// one JSON document under .bench_build/spans.
func writeSpans(cfg config, traces []*telemetry.Trace) error {
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return err
	}
	out := make([]telemetry.TraceJSON, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.Export())
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), b, 0o644)
}
