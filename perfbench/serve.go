package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"faultcast"
	"faultcast/internal/load"
	"faultcast/internal/service"
	"faultcast/internal/telemetry"
)

// serveSpec is the serve-mix traffic: Poisson arrivals at 60 req/s (about
// 40% of measured capacity on 2 vCPUs), half the estimates on hot keys,
// cold keys drawn from a 4096-seed universe, a quarter of the estimates
// stating a half-width target, and 5% sweeps, over the default scenario
// mix.
func serveSpec(d time.Duration) load.Spec {
	return load.Spec{
		Rate: 60, Arrival: "poisson", Duration: d, Seed: 1,
		HotFraction: 0.5, KeyUniverse: 4096, Trials: 1000,
		HalfWidth: 0.05, HalfWidthFraction: 0.25, SweepFraction: 0.05,
	}
}

// serveSchedule is the request sequence of one run. Arrival times,
// classes and scenarios come from load.Spec.Schedule under a fixed spec
// seed, so every run offers the same mix of work; the workload seed
// re-keys every cold request to another seed of the same universe, so
// runs differ in the trial streams they ask for, not in how much they
// ask.
func serveSchedule(seed uint64, d time.Duration) ([]load.Request, error) {
	spec := serveSpec(d)
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	rekey := func(s uint64) uint64 {
		if s == 1 { // the hot seed
			return s
		}
		return 2 + splitmix(seed, s)%uint64(spec.KeyUniverse)
	}
	for i := range sched {
		if e := sched[i].Estimate; e != nil {
			e.Seed = rekey(e.Seed)
		}
		if w := sched[i].Sweep; w != nil {
			w.Seed = rekey(w.Seed)
		}
	}
	return sched, nil
}

// exchange is one request of a phase and what came back.
type exchange struct {
	req    load.Request
	body   []byte
	due    time.Time // when the schedule wanted it sent (open loop only)
	issued time.Time // when the generator handed it to a connection
	sent   time.Time // when a connection started sending it
	done   time.Time // when the response body was fully read
	status int
	resp   []byte
	err    error

	est   *service.EstimateResponse
	cells []service.SweepCellResponse
}

func newExchanges(sched []load.Request) ([]exchange, error) {
	xs := make([]exchange, len(sched))
	for i, rq := range sched {
		var err error
		xs[i].req = rq
		if rq.Sweep != nil {
			xs[i].body, err = json.Marshal(rq.Sweep)
		} else {
			xs[i].body, err = json.Marshal(rq.Estimate)
		}
		if err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// client is the benchmark's HTTP side: at most conns connections to one
// server.
type client struct {
	url   string
	http  *http.Client
	conns int
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{url: url, http: &http.Client{Transport: tr}, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(x *exchange) {
	path := "/v1/estimate"
	if x.req.Sweep != nil {
		path = "/v1/sweep"
	}
	x.sent = time.Now()
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(x.body))
	if err != nil {
		x.err = err
		x.done = time.Now()
		return
	}
	x.resp, x.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.done = time.Now()
	x.status = resp.StatusCode
}

// openLoop issues every exchange at its scheduled offset regardless of
// how the server keeps up. Due requests queue for one of the client's
// connections; latency runs from the due time, so a stall is charged to
// every request it delays.
func (c *client) openLoop(xs []exchange) {
	// Buffered to the request count: the generator must never wait on a
	// busy connection, or it would stop issuing on schedule.
	queue := make(chan *exchange, len(xs))
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range queue {
				c.do(x)
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i := range xs {
		x := &xs[i]
		x.due = start.Add(x.req.At)
		if d := time.Until(x.due); d > 0 {
			time.Sleep(d)
		}
		x.issued = time.Now()
		queue <- x
	}
	close(queue)
	wg.Wait()
}

// capacityChunk is the request count of one closed-loop chunk.
const capacityChunk = 60

// capacity replays the exchanges closed-loop in consecutive chunks and
// returns the median chunk rate in completed requests per second: a
// burst of interference on a shared machine slows a few chunks, not the
// figure. Every run replays the same sequence, so chunk contents match
// across runs.
func (c *client) capacity(xs []exchange) float64 {
	var rates []float64
	for i := 0; i < len(xs); i += capacityChunk {
		chunk := xs[i:min(i+capacityChunk, len(xs))]
		wall := c.closedLoop(chunk)
		rates = append(rates, float64(len(latencies(chunk, anyClass, fromSent)))/wall.Seconds())
	}
	return quantile(rates, 0.5)
}

// closedLoop sends every exchange back to back from c.conns callers and
// returns the phase's wall time.
func (c *client) closedLoop(xs []exchange) time.Duration {
	queue := make(chan *exchange, len(xs)) // pre-filled: the callers drain it
	for i := range xs {
		queue <- &xs[i]
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range queue {
				c.do(x)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// decode parses a 200 response and reports whether it is well formed.
func (x *exchange) decode() bool {
	if x.err != nil || x.status != http.StatusOK {
		return false
	}
	if x.req.Estimate != nil {
		var r service.EstimateResponse
		if json.Unmarshal(x.resp, &r) != nil {
			return false
		}
		x.est = &r
		return r.Key != "" && r.Trials > 0 && r.Successes >= 0 && r.Successes <= r.Trials
	}
	sc := bufio.NewScanner(bytes.NewReader(x.resp))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var summary service.SweepSummary
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if json.Unmarshal(line, &summary) != nil {
				return false
			}
			continue
		}
		var cell service.SweepCellResponse
		if json.Unmarshal(line, &cell) != nil {
			return false
		}
		x.cells = append(x.cells, cell)
	}
	return summary.Done && summary.Error == "" && summary.Cells == len(x.req.Sweep.Ps) && len(x.cells) == summary.Cells
}

// estimateConfig lowers an estimate request the way the service does for
// the fields the load generator sets (graph, p, seed; defaults elsewhere).
func estimateConfig(r *service.EstimateRequest) (faultcast.Config, error) {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	g, err := faultcast.ParseGraph(r.Graph, seed)
	if err != nil {
		return faultcast.Config{}, err
	}
	return faultcast.Config{Graph: g, Message: []byte("1"), P: r.P, Seed: seed}, nil
}

// checkPhase counts one operation per exchange (any non-200 or malformed
// answer fails) and recomputes up to maxRecompute budget-only answers the
// server simulated fresh, untimed, with Plan.Estimate: same key, same
// estimate, bit for bit.
func checkPhase(o *outcome, phase string, xs []exchange, maxRecompute int) {
	var fresh []int
	for i := range xs {
		x := &xs[i]
		ok := x.decode()
		o.op(ok, "%s request %d (%s): status %d err=%v body=%.120s", phase, i, x.req.Class, x.status, x.err, x.resp)
		if ok && x.est != nil && x.req.Estimate.HalfWidth == 0 && x.est.Served == "simulated" {
			fresh = append(fresh, i)
		}
	}
	if maxRecompute <= 0 {
		return
	}
	step := max(1, len(fresh)/maxRecompute)
	plans := map[string]*faultcast.Plan{}
	for k := 0; k < len(fresh); k += step {
		x := &xs[fresh[k]]
		cfg, err := estimateConfig(x.req.Estimate)
		ok := err == nil && cfg.Fingerprint() == x.est.Key
		if ok {
			seedless := cfg
			seedless.Seed = 0
			key := seedless.Fingerprint()
			if plans[key] == nil {
				plans[key], err = faultcast.Compile(seedless)
			}
			var est faultcast.Estimate
			if err == nil {
				est, err = plans[key].Estimate(x.est.Trials, faultcast.WithBaseSeed(cfg.Seed))
			}
			ok = err == nil && est.Trials == x.est.Trials && est.Succeeds == x.est.Successes &&
				math.Float64bits(est.Rate) == math.Float64bits(x.est.Rate) &&
				math.Float64bits(est.Low) == math.Float64bits(x.est.Low) &&
				math.Float64bits(est.Hi) == math.Float64bits(x.est.High)
		}
		o.op(ok, "%s request %d: recomputed estimate differs from served %+v (err=%v)", phase, fresh[k], *x.est, err)
	}
}

func latencies(xs []exchange, keep func(*exchange) bool, from func(*exchange) time.Time) []float64 {
	var out []float64
	for i := range xs {
		x := &xs[i]
		if x.status == http.StatusOK && x.err == nil && keep(x) {
			out = append(out, ms(x.done.Sub(from(x))))
		}
	}
	return out
}

func anyClass(*exchange) bool        { return true }
func fromDue(x *exchange) time.Time  { return x.due }
func fromSent(x *exchange) time.Time { return x.sent }
func class(c string) func(*exchange) bool {
	return func(x *exchange) bool { return x.req.Class == c }
}

// lateP99 is the 99th percentile of how late the open-loop generator
// handed requests to a connection, in milliseconds.
func lateP99(open []exchange) float64 {
	late := make([]float64, len(open))
	for i := range open {
		late[i] = ms(open[i].issued.Sub(open[i].due))
	}
	return quantile(late, 0.99)
}

// servePhases runs the open loop on a fresh server, then replays the same
// sequence closed-loop on another fresh server, returning its capacity in
// requests per second. opts configures both servers.
func servePhases(cfg config, opts service.Options) (open, closed []exchange, capacity float64, openNode *node, err error) {
	sched, err := serveSchedule(cfg.seed, cfg.duration())
	if err != nil {
		return nil, nil, 0, nil, err
	}
	if open, err = newExchanges(sched); err != nil {
		return nil, nil, 0, nil, err
	}
	if closed, err = newExchanges(sched); err != nil {
		return nil, nil, 0, nil, err
	}
	if openNode, err = startNode(opts); err != nil {
		return nil, nil, 0, nil, err
	}
	c := newClient(openNode.url, workers())
	c.openLoop(open)
	c.close()
	capNode, err := startNode(opts)
	if err != nil {
		openNode.stop()
		return nil, nil, 0, nil, err
	}
	c = newClient(capNode.url, workers())
	capacity = c.capacity(closed)
	c.close()
	capNode.stop()
	return open, closed, capacity, openNode, nil
}

func runServeMix(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceServeMix(cfg)
	}
	o := &outcome{}
	if err := o.measureSetup(func() (func(), error) {
		n, err := startNode(service.Options{})
		if err != nil {
			return nil, err
		}
		c := newClient(n.url, 1)
		undo := func() { c.close(); n.stop() }
		resp, err := c.http.Get(n.url + "/healthz")
		if err != nil {
			return undo, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return undo, nil
	}); err != nil {
		return nil, err
	}
	open, closed, capacity, n, err := servePhases(cfg, service.Options{})
	if err != nil {
		return nil, err
	}
	n.stop()
	o.rssMB = peakRSSMB()
	checkPhase(o, "open-loop", open, 64)
	checkPhase(o, "closed-loop", closed, 16)

	all := latencies(open, anyClass, fromDue)
	// Both slots come from the closed-loop phase: capacity, and the median
	// cold-key estimate there (the execution path under full load). The
	// open-loop figures are printed, not gated: on a shared machine they
	// swing with how late the generator itself runs.
	o.throughput = capacity
	o.latencyMS = quantile(latencies(closed, class(load.ClassEstimateCold), fromSent), 0.5)
	o.fig("serve_p50_ms", quantile(all, 0.5), "ms")
	o.fig("serve_p99_ms", quantile(all, 0.99), "ms")
	o.fig("serve_hot_p50_ms", quantile(latencies(open, class(load.ClassEstimateHot), fromDue), 0.5), "ms")
	o.fig("serve_cold_p50_ms", quantile(latencies(open, class(load.ClassEstimateCold), fromDue), 0.5), "ms")
	o.fig("serve_capacity_rps", o.throughput, "1/s")
	o.fig("capacity_cold_p50_ms", o.latencyMS, "ms")
	o.fig("open_loop_requests", float64(len(all)), "count")
	o.fig("load.late_p99_ms", lateP99(open), "ms")
	return o, nil
}

// traceServeMix repeats both phases on servers that retain every request
// trace, reads the span trees back through Server.Traces(), and compares
// every order-independent answer with an untraced closed-loop replay.
func traceServeMix(cfg config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	sched, err := serveSchedule(cfg.seed, cfg.duration())
	if err != nil {
		return nil, err
	}
	ring := service.Options{TraceRing: len(sched) + 16, TraceSlowest: 1}

	// Untraced reference: the plain closed-loop replay.
	ref, err := newExchanges(sched)
	if err != nil {
		return nil, err
	}
	rn, err := startNode(service.Options{})
	if err != nil {
		return nil, err
	}
	c := newClient(rn.url, workers())
	refCapacity := c.capacity(ref)
	c.close()
	rn.stop()
	checkPhase(o, "untraced closed-loop", ref, 0)

	open, closed, capacity, n, err := servePhases(cfg, ring)
	if err != nil {
		return nil, err
	}
	defer n.stop()
	checkPhase(o, "traced open-loop", open, 16)
	checkPhase(o, "traced closed-loop", closed, 0)
	// Answers the server simulated fresh are pure functions of the
	// request, so both replays must agree on them bit for bit.
	for i := range closed {
		a, b := closed[i].est, ref[i].est
		if a == nil || b == nil || a.Served != "simulated" || b.Served != "simulated" {
			continue
		}
		same := a.Key == b.Key && a.Trials == b.Trials && a.Successes == b.Successes &&
			math.Float64bits(a.Rate) == math.Float64bits(b.Rate)
		o.op(same, "traced request %d differs from untraced: %+v vs %+v", i, *a, *b)
	}

	st := n.srv.Stats()
	fillServiceCounters(o.layers, service.Stats{}, st)
	spans := newSpanStats()
	agg := newEngineAgg()
	var handler, residual []float64
	var traces []*telemetry.Trace
	var execWall, compile time.Duration
	cores := coreCache{}
	for i := range open {
		x := &open[i]
		id := traceID(x)
		tr, ok := n.srv.Traces().Get(id)
		if id == "" || !ok {
			continue
		}
		traces = append(traces, tr)
		root := tr.Root()
		spans.add(root)
		h := time.Duration(root.DurNs)
		handler = append(handler, ms(h))
		residual = append(residual, ms(x.done.Sub(x.sent)-h))
		walk(root, func(sp *telemetry.Span) {
			switch sp.Name {
			case "execute":
				execWall += time.Duration(sp.DurNs)
				engineFromSpan(agg, sp, x, cores)
			case "compile":
				compile += time.Duration(sp.DurNs)
			}
		})
	}
	agg.fill(o.layers, execWall, workers())
	spans.fill(o.layers)
	o.layers["faultcast.compile_s"] = compile.Seconds()
	o.layers["service.handler_ms.p50"] = quantile(handler, 0.5)
	o.layers["service.handler_ms.p99"] = quantile(handler, 0.99)
	o.layers["service.residual_ms.p50"] = quantile(residual, 0.5)
	o.layers["service.residual_ms.p99"] = quantile(residual, 0.99)
	o.layers["telemetry.traces_started"] = float64(n.srv.Traces().Started())
	o.layers["telemetry.overhead_pct"] = 100 * (refCapacity/capacity - 1)
	o.layers["load.late_p99_ms"] = lateP99(open)
	return o, writeSpans(cfg, traces)
}

func traceID(x *exchange) string {
	if x.est != nil {
		return x.est.TraceID
	}
	// A sweep's trace ID rides on its summary line.
	var s service.SweepSummary
	if i := bytes.LastIndex(bytes.TrimSpace(x.resp), []byte("\n")); i >= 0 && json.Unmarshal(x.resp[i+1:], &s) == nil {
		return s.TraceID
	}
	return ""
}

// engineFromSpan folds one execute span's batch attributes (batches,
// batch_trials, engine_time) into agg. The draw shapes come from the
// request's answer: an estimate's batches share its scenario, a sweep ran
// one un-ruled batch per simulated cell. Engine time is split by trials.
func engineFromSpan(agg *engineAgg, sp *telemetry.Span, x *exchange, cores coreCache) {
	num := func(k string) int {
		v, _ := attr(sp, k)
		n, _ := strconv.Atoi(v)
		return n
	}
	batches, trials := num("batches"), num("batch_trials")
	if batches == 0 || trials == 0 {
		return
	}
	v, _ := attr(sp, "engine_time")
	engine, _ := time.ParseDuration(v)
	share := func(t int) time.Duration { return engine * time.Duration(t) / time.Duration(trials) }
	if x.est != nil {
		s := shape{p: x.req.Estimate.P, n: x.est.N, rounds: x.est.Rounds, lanes: x.est.Core == "lanes"}
		per := trials / batches
		for b := 0; b < batches; b++ {
			t := per
			if b == batches-1 {
				t = trials - per*(batches-1)
			}
			agg.batch(s, t, share(t))
		}
		return
	}
	for _, c := range x.cells {
		if c.TrialsSimulated > 0 {
			s := shape{p: c.P, n: c.N, rounds: c.Rounds, lanes: cores.lanes(c)}
			agg.batch(s, c.TrialsSimulated, share(c.TrialsSimulated))
		}
	}
}

// coreCache answers which core a sweep cell's scenario runs on, compiling
// each distinct scenario once.
type coreCache map[string]bool

func (cc coreCache) lanes(c service.SweepCellResponse) bool {
	key := c.Graph + "|" + c.Model + "|" + c.Fault + "|" + c.Algorithm + "|" + strconv.FormatFloat(c.P, 'g', -1, 64)
	if v, ok := cc[key]; ok {
		return v
	}
	g, err := faultcast.ParseGraph(c.Graph, 1)
	if err != nil {
		return false
	}
	cfg := faultcast.Config{Graph: g, Source: c.Source, Message: []byte(c.Message), P: c.P}
	cfg.Model, _ = faultcast.ParseModel(c.Model)
	cfg.Fault, _ = faultcast.ParseFault(c.Fault)
	cfg.Algorithm, _ = faultcast.ParseAlgorithm(c.Algorithm)
	plan, err := faultcast.Compile(cfg)
	cc[key] = err == nil && plan.EstimationCore() == "lanes"
	return cc[key]
}
