package main

import (
	"fmt"
	"time"

	"faultcast"
	"faultcast/internal/telemetry"
)

// estimateBudget is the fixed, un-ruled per-call trial budget of
// estimate-fixed: a multiple of the lane width, so every block is full.
const estimateBudget = 256

// estimateScenarios are the four lane-core shapes estimate-fixed cycles
// through: the composed protocol, the noise adversary, radio repetition
// and flooding.
func estimateScenarios() []faultcast.Config {
	return []faultcast.Config{
		{Graph: faultcast.Line(33), Message: []byte("1"), Model: faultcast.MessagePassing,
			Fault: faultcast.LimitedMalicious, P: 0.2, Algorithm: faultcast.Composed, Adversary: faultcast.FlipAdv},
		{Graph: faultcast.KaryTree(63, 2), Message: []byte("diff"), Model: faultcast.MessagePassing,
			Fault: faultcast.Malicious, P: 0.3, WindowC: 2, Algorithm: faultcast.SimpleMalicious, Adversary: faultcast.NoiseAdv},
		{Graph: faultcast.Layered(6), Message: []byte("1"), Model: faultcast.Radio,
			Fault: faultcast.Omission, P: 0.4, Algorithm: faultcast.RadioRepeat},
		{Graph: faultcast.Grid(16, 16), Message: []byte("1"), Model: faultcast.MessagePassing,
			Fault: faultcast.Omission, P: 0.5, Algorithm: faultcast.Flooding},
	}
}

func compileAll(cfgs []faultcast.Config, core faultcast.Core) ([]*faultcast.Plan, error) {
	plans := make([]*faultcast.Plan, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Core = core
		p, err := faultcast.Compile(cfg)
		if err != nil {
			return nil, fmt.Errorf("compile scenario %d: %w", i, err)
		}
		plans[i] = p
	}
	return plans, nil
}

// estimateCall is one Plan.Estimate call of the closed loop: call i runs
// scenario i mod 4 from a base seed derived from the workload seed.
type estimateCall struct {
	scenario int
	seed     uint64
	est      faultcast.Estimate
	err      error
	lat      time.Duration
}

// cycleAt returns the four calls i..i+3 (i a multiple of 4): one cycle
// through the scenarios.
func cycleAt(seed uint64, i int) []estimateCall {
	c := make([]estimateCall, 4)
	for k := range c {
		c[k] = estimateCall{scenario: k, seed: splitmix(seed, uint64(i+k))}
	}
	return c
}

// callHook adds options to one call and returns them with a function to
// run once the call has returned (nil for none).
type callHook func(c *estimateCall) ([]faultcast.EstimateOption, func())

// runCalls executes calls in order on plans and returns the loop's wall
// time. hook, when non-nil, instruments each call.
func runCalls(plans []*faultcast.Plan, calls []estimateCall, hook callHook) time.Duration {
	start := time.Now()
	for i := range calls {
		c := &calls[i]
		o := []faultcast.EstimateOption{faultcast.WithBaseSeed(c.seed)}
		var done func()
		if hook != nil {
			var extra []faultcast.EstimateOption
			extra, done = hook(c)
			o = append(o, extra...)
		}
		t := time.Now()
		c.est, c.err = plans[c.scenario].Estimate(estimateBudget, o...)
		c.lat = time.Since(t)
		if done != nil {
			done()
		}
	}
	return time.Since(start)
}

// validEstimate reports whether a fixed-budget answer is well formed.
func validEstimate(c *estimateCall) bool {
	return c.err == nil && c.est.Trials == estimateBudget && c.est.Succeeds >= 0 && c.est.Succeeds <= c.est.Trials
}

func runEstimateFixed(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceEstimateFixed(cfg)
	}
	o := &outcome{}
	scen := estimateScenarios()
	var plans []*faultcast.Plan
	if err := o.measureSetup(func() (func(), error) {
		var err error
		plans, err = compileAll(scen, faultcast.CoreAuto)
		return nil, err
	}); err != nil {
		return nil, err
	}
	// One untimed cycle lets lazily built engine state settle.
	runCalls(plans, cycleAt(cfg.seed^0xa5a5, 0), nil)

	// The closed loop: one caller, whole cycles of four calls, until the
	// measured window is over.
	var calls []estimateCall
	deadline := time.Now().Add(cfg.duration())
	var wall time.Duration
	for len(calls) == 0 || time.Now().Before(deadline) {
		cycle := cycleAt(cfg.seed, len(calls))
		wall += runCalls(plans, cycle, nil)
		calls = append(calls, cycle...)
	}

	o.rssMB = peakRSSMB()

	// Output check: every answer well formed, and the first call of each
	// scenario recomputed untimed on the bitset core with equal results.
	bitset, err := compileAll(scen, faultcast.CoreBitset)
	if err != nil {
		return nil, err
	}
	ref := append([]estimateCall(nil), calls[:4]...)
	runCalls(bitset, ref, nil)
	for i := range calls {
		c := &calls[i]
		ok := validEstimate(c)
		if ok && i < len(ref) {
			ok = ref[i].err == nil && ref[i].est == c.est
		}
		o.op(ok, "estimate call %d (scenario %d, seed %d): %v err=%v", i, c.scenario, c.seed, c.est, c.err)
	}

	perScenario := make([][]float64, 4)
	var all []float64
	for _, c := range calls {
		perScenario[c.scenario] = append(perScenario[c.scenario], ms(c.lat))
		all = append(all, ms(c.lat))
	}
	medians := make([]float64, 4)
	for s := range perScenario {
		medians[s] = quantile(perScenario[s], 0.5)
	}
	// Both slots are built from per-scenario medians, so a burst of
	// interference on a shared machine moves a few calls, not the figures:
	// throughput is one cycle's trials over the sum of the scenarios'
	// median call times, latency the median of the four medians.
	cycle := 0.0
	for _, m := range medians {
		cycle += m
	}
	o.throughput = 4 * estimateBudget / (cycle / 1e3)
	o.latencyMS = quantile(medians, 0.5)
	o.fig("trials_per_s", o.throughput, "1/s")
	o.fig("estimate_p50_ms", o.latencyMS, "ms")
	o.fig("estimate_p95_ms", quantile(all, 0.95), "ms")
	o.fig("estimate_calls", float64(len(calls)), "count")
	o.fig("loop_trials_per_s", float64(len(calls)*estimateBudget)/wall.Seconds(), "1/s")
	for s, m := range medians {
		o.fig(fmt.Sprintf("estimate_p50_ms.scenario%d", s), m, "ms")
	}
	return o, nil
}

// traceEstimateFixed is the instrumented run: the same calls untraced,
// traced (batch probe and span attached) and traced on one worker. The
// three must agree bit for bit; their wall times give the tracing
// overhead and the pool's scaling efficiency.
func traceEstimateFixed(cfg config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	scen := estimateScenarios()
	t := time.Now()
	plans, err := compileAll(scen, faultcast.CoreAuto)
	if err != nil {
		return nil, err
	}
	o.layers["faultcast.compile_s"] = time.Since(t).Seconds()
	shapes := make([]shape, len(plans))
	for i, p := range plans {
		shapes[i] = planShape(p)
	}

	// Size the run from one warm cycle: each measured cycle runs its four
	// calls untraced, traced and traced on one worker (about four cycle
	// times), interleaved so drift hits the three variants alike.
	runCalls(plans, cycleAt(cfg.seed^0xa5a5, 0), nil)
	cycleTime := runCalls(plans, cycleAt(cfg.seed^0xa5a5, 4), nil)
	cycles := max(2, int(cfg.duration()/(4*cycleTime)))
	var base []estimateCall
	for len(base) < 4*cycles {
		base = append(base, cycleAt(cfg.seed, len(base))...)
	}

	col := telemetry.NewCollector(len(base)+1, 1)
	agg, oneAgg := newEngineAgg(), newEngineAgg()
	var traces []*telemetry.Trace
	tracedHook := func(c *estimateCall) ([]faultcast.EstimateOption, func()) {
		tr := col.StartTrace("estimate")
		traces = append(traces, tr)
		s := shapes[c.scenario]
		return []faultcast.EstimateOption{
			faultcast.WithSpan(tr.Root()),
			faultcast.WithBatchProbe(agg.probe(func(int) shape { return s })),
		}, tr.Finish
	}
	// The one-worker pass carries a probe too, so it is instrumented like
	// the pool pass it is compared with.
	oneHook := func(c *estimateCall) ([]faultcast.EstimateOption, func()) {
		s := shapes[c.scenario]
		return []faultcast.EstimateOption{faultcast.WithWorkers(1), faultcast.WithBatchProbe(oneAgg.probe(func(int) shape { return s }))}, nil
	}
	untraced := append([]estimateCall(nil), base...)
	traced := append([]estimateCall(nil), base...)
	one := append([]estimateCall(nil), base...)
	var untracedWall, tracedWall, oneWall time.Duration
	for k := 0; k < len(base); k += 4 {
		untracedWall += runCalls(plans, untraced[k:k+4], nil)
		tracedWall += runCalls(plans, traced[k:k+4], tracedHook)
		oneWall += runCalls(plans, one[k:k+4], oneHook)
	}
	var callWall time.Duration
	for _, c := range traced {
		callWall += c.lat
	}

	for i := range base {
		for _, pass := range []struct {
			name string
			c    *estimateCall
		}{{"traced", &traced[i]}, {"one-worker", &one[i]}} {
			ok := validEstimate(&untraced[i]) && validEstimate(pass.c) && pass.c.est == untraced[i].est
			o.op(ok, "%s call %d differs from untraced: %v vs %v", pass.name, i, pass.c.est, untraced[i].est)
		}
	}

	agg.fill(o.layers, callWall, workers())
	o.layers["exec.scaling_eff"] = oneWall.Seconds() / (float64(workers()) * tracedWall.Seconds())
	o.layers["telemetry.overhead_pct"] = 100 * (tracedWall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds()
	o.layers["telemetry.traces_started"] = float64(col.Started())
	spans := 0
	for _, tr := range traces {
		walk(tr.Root(), func(*telemetry.Span) { spans++ })
	}
	o.layers["telemetry.spans_per_request"] = float64(spans) / float64(len(traces))
	return o, writeSpans(cfg, traces)
}
