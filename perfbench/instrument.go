package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"faultcast"
	"faultcast/internal/cluster"
	"faultcast/internal/exec"
	"faultcast/internal/rng"
	"faultcast/internal/service"
	"faultcast/internal/telemetry"
)

// laneWidth is the trial count of one lane-core block call.
const laneWidth = 64

// shape is what the layer arithmetic needs to know about a scenario: its
// failure probability and vertex count (the rng draw shape), round
// horizon, and whether it runs on the lane core (only lane blocks draw
// through rng.(*Lanes).BernoulliWords).
type shape struct {
	p      float64
	n      int
	rounds int
	lanes  bool
}

func planShape(plan *faultcast.Plan) shape {
	cfg := plan.Config()
	return shape{p: cfg.P, n: cfg.Graph.N(), rounds: plan.Rounds(), lanes: plan.EstimationCore() == "lanes"}
}

// blockCalls is the number of engine calls exec makes for one batch: lane
// cells claim laneWidth-trial blocks clipped to the batch, other cores run
// one trial per call.
func (s shape) blockCalls(batchTrials int) int {
	if !s.lanes {
		return batchTrials
	}
	return (batchTrials + laneWidth - 1) / laneWidth
}

// engineAgg folds exec.BatchStat probes (and equivalent figures from
// worker span trees) into the sim, exec and rng layer totals.
type engineAgg struct {
	mu         sync.Mutex
	batches    int
	trials     int
	blockCalls int
	engine     time.Duration
	// words counts BernoulliWords output words per (p, n) draw shape.
	words map[[2]float64]float64
}

func newEngineAgg() *engineAgg { return &engineAgg{words: map[[2]float64]float64{}} }

// batch records one batch of trials run as the given shape.
func (a *engineAgg) batch(s shape, trials int, engine time.Duration) {
	calls := s.blockCalls(trials)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches++
	a.trials += trials
	a.blockCalls += calls
	a.engine += engine
	if s.lanes {
		a.words[[2]float64{s.p, float64(s.n)}] += float64(calls * s.rounds * s.n)
	}
}

// probe returns an exec batch probe attributing every batch to the shape
// of its cell.
func (a *engineAgg) probe(shapeOf func(cell int) shape) func(exec.BatchStat) {
	return func(bs exec.BatchStat) { a.batch(shapeOf(bs.Cell), bs.Trials, bs.Engine) }
}

// fill writes the sim, exec and rng layer metrics. execWall is the summed
// wall time of the exec runs the batches belong to (each call or pass,
// not each batch: batches of concurrent cells overlap) and poolWorkers
// the pool size they ran on; a zero execWall leaves exec.overhead_s
// unreported.
func (a *engineAgg) fill(layers map[string]float64, execWall time.Duration, poolWorkers int) {
	layers["sim.engine_s"] = a.engine.Seconds()
	layers["sim.block_calls"] = float64(a.blockCalls)
	layers["exec.batches"] = float64(a.batches)
	if execWall > 0 {
		layers["exec.overhead_s"] = execWall.Seconds() - a.engine.Seconds()/float64(poolWorkers)
	}
	if a.blockCalls > 0 {
		layers["exec.lane_fill"] = float64(a.trials) / float64(a.blockCalls*laneWidth)
	}
	var words, ns float64
	for k, w := range a.words {
		words += w
		ns += w * nsPerWord(k[0], int(k[1]))
	}
	layers["rng.words"] = words
	if words > 0 {
		layers["rng.ns_per_word"] = ns / words
	}
	if a.engine > 0 {
		layers["rng.share"] = ns / float64(a.engine.Nanoseconds())
	}
}

// nsPerWord times rng.(*Lanes).BernoulliWords at one draw shape: the
// per-word cost of the lane core's fault sampler, measured in isolation.
func nsPerWord(p float64, n int) float64 {
	var seeds [rng.LaneCount]uint64
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	l := rng.NewLanes(&seeds)
	out := make([]uint64, n)
	calls := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for k := 0; k < 32; k++ {
			l.BernoulliWords(p, n, out)
		}
		calls += 32
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*n)
}

// timedStore wraps a TallyStore and times every call through it.
type timedStore struct {
	inner faultcast.TallyStore

	mu           sync.Mutex
	loads        int
	loadTime     time.Duration
	trialsLoaded int
	appends      int
	appendTime   time.Duration
}

func (s *timedStore) LoadTally(planKey string, baseSeed uint64, batch int) ([]faultcast.TallyBucket, error) {
	start := time.Now()
	b, err := s.inner.LoadTally(planKey, baseSeed, batch)
	d := time.Since(start)
	n := 0
	for _, x := range b {
		n += x.Trials
	}
	s.mu.Lock()
	s.loads++
	s.loadTime += d
	s.trialsLoaded += n
	s.mu.Unlock()
	return b, err
}

func (s *timedStore) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []faultcast.TallyBucket) error {
	t := time.Now()
	err := s.inner.AppendTally(planKey, baseSeed, batch, start, buckets)
	d := time.Since(t)
	s.mu.Lock()
	s.appends++
	s.appendTime += d
	s.mu.Unlock()
	return err
}

// shardCall is one completed shard round trip as the coordinator's HTTP
// client saw it.
type shardCall struct {
	req       cluster.ShardRequest
	rtt       time.Duration // request start to response body fully read
	handler   time.Duration // the worker's own shard span
	bytesOut  int
	bytesIn   int
	succeeded bool
}

// timedTransport is an http.RoundTripper for cluster.Options.HTTPClient
// that records every shard's size, round-trip time and worker-side span.
type timedTransport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	calls []shardCall
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	var call shardCall
	if r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		call.bytesOut = len(body)
		_ = json.Unmarshal(body, &call.req) // a body that fails to decode still counts its bytes
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	call.rtt = time.Since(start)
	call.bytesIn = len(body)
	if resp.StatusCode == http.StatusOK {
		var sr cluster.ShardResponse
		if json.Unmarshal(body, &sr) == nil && sr.Trace != nil {
			call.handler = time.Duration(sr.Trace.DurNs)
			call.succeeded = true
		}
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(sp *telemetry.Span) time.Duration {
	type iv struct{ lo, hi int64 }
	lo, hi := sp.StartNs, sp.StartNs+sp.DurNs
	var ivs []iv
	for _, c := range sp.Children {
		a, b := max(c.StartNs, lo), min(c.StartNs+c.DurNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), lo
	for _, x := range ivs {
		if x.hi <= end {
			continue
		}
		covered += x.hi - max(x.lo, end)
		end = x.hi
	}
	return time.Duration(sp.DurNs - covered)
}

// walk visits sp and its descendants depth-first.
func walk(sp *telemetry.Span, f func(*telemetry.Span)) {
	if sp == nil {
		return
	}
	f(sp)
	for _, c := range sp.Children {
		walk(c, f)
	}
}

func attr(sp *telemetry.Span, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// spanStats collects self-time samples of the service's stage spans
// (admission, plan, compile, execute) across many request trees.
type spanStats struct {
	self  map[string][]float64
	spans int
	trees int
}

func newSpanStats() *spanStats { return &spanStats{self: map[string][]float64{}} }

// add folds one server-side request tree (a request trace's root).
func (s *spanStats) add(root *telemetry.Span) {
	s.trees++
	walk(root, func(sp *telemetry.Span) {
		s.spans++
		switch sp.Name {
		case "admission", "plan", "compile", "execute":
			s.self[sp.Name] = append(s.self[sp.Name], ms(selfTime(sp)))
		}
	})
}

// fill writes the service span self-time percentiles and span counts.
func (s *spanStats) fill(layers map[string]float64) {
	for _, name := range []string{"admission", "plan", "compile", "execute"} {
		layers["service."+name+"_ms.p50"] = quantile(s.self[name], 0.5)
		layers["service."+name+"_ms.p99"] = quantile(s.self[name], 0.99)
	}
	if s.trees > 0 {
		layers["telemetry.spans_per_request"] = float64(s.spans) / float64(s.trees)
	}
}

// fillServiceCounters writes the service counter deltas between two
// snapshots.
func fillServiceCounters(layers map[string]float64, before, after service.Stats) {
	layers["service.cache_hits"] = float64(after.CacheHits - before.CacheHits)
	layers["service.executions"] = float64(after.Executions - before.Executions)
	layers["service.coalesced"] = float64(after.Coalesced - before.Coalesced)
	layers["service.plan_compiles"] = float64(after.PlanCompiles - before.PlanCompiles)
	layers["service.trials_simulated"] = float64(after.TrialsSimulated - before.TrialsSimulated)
	layers["service.rejected"] = float64(after.Rejected - before.Rejected)
}
