package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

	"faultcast"
	"faultcast/internal/cluster"
	"faultcast/internal/service"
	"faultcast/internal/telemetry"
)

// node is one in-process faultcast service on a loopback listener.
type node struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

func startNode(opts service.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(opts)
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down and returns once Serve has returned.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	return err
}

// fleet is the sweep-cluster deployment: two service workers and the
// coordinator that shards cells across them.
type fleet struct {
	nodes []*node
	coord *cluster.Coordinator
}

func startFleet() (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(service.Options{})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	f.coord = cluster.New(urls, cluster.Options{})
	return f, nil
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
}

func runSweepCluster(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceSweepCluster(cfg)
	}
	o := &outcome{}
	if err := o.measureSetup(func() (func(), error) {
		fl, err := startFleet()
		if err != nil {
			return nil, err
		}
		_, err = faultcast.CompileSweep(sweepSpec(gridSeed(cfg.seed, 0)))
		return fl.stop, err
	}); err != nil {
		return nil, err
	}
	fl, err := startFleet()
	if err != nil {
		return nil, err
	}
	defer fl.stop()

	// The local pool runs each grid variant once, before the measured
	// window: the reference every cluster result must equal, and a
	// same-run control for the cluster's wall time. The cluster passes
	// then cycle through the variants like sweep-almost-safe's.
	local := make([][]faultcast.CellResult, gridVariants)
	trials := make([]int, gridVariants)
	var localWalls []float64
	for k := range local {
		lp, err := runSweep(gridSeed(cfg.seed, k))
		if err != nil {
			return nil, err
		}
		checkCells(o, "local", lp.results, nil, false)
		local[k], trials[k] = lp.results, decidedTrials(lp.results)
		localWalls = append(localWalls, ms(lp.wall))
	}
	walls := make([][]float64, gridVariants)
	deadline := time.Now().Add(cfg.duration())
	var last time.Duration
	for pass := 0; pass < gridVariants || time.Now().Add(last).Before(deadline); pass++ {
		k := pass % gridVariants
		cp, err := runSweep(gridSeed(cfg.seed, k), faultcast.WithSweepDispatcher(fl.coord))
		if err != nil {
			return nil, err
		}
		last = cp.wall
		walls[k] = append(walls[k], ms(cp.wall))
		checkCells(o, "cluster", cp.results, local[k], false)
	}
	o.rssMB = peakRSSMB()
	n, cycleMS := variantCycle(trials, walls)
	o.throughput = float64(n) / (cycleMS / 1e3)
	o.latencyMS = cycleMS / gridVariants
	o.fig("trials_per_s", o.throughput, "1/s")
	o.fig("sweep_s", o.latencyMS/1e3, "s")
	o.fig("local_sweep_s", quantile(localWalls, 0.5)/1e3, "s")
	o.fig("cluster_passes", float64(samples(walls)), "count")
	return o, nil
}

// totals sums the counters of the fleet's workers and the traces they
// started.
func (f *fleet) totals() (service.Stats, uint64) {
	var sum service.Stats
	var traces uint64
	for _, n := range f.nodes {
		s := n.srv.Stats()
		sum.CacheHits += s.CacheHits
		sum.Executions += s.Executions + s.ShardsExecuted
		sum.Coalesced += s.Coalesced
		sum.PlanCompiles += s.PlanCompiles
		sum.TrialsSimulated += s.TrialsSimulated
		sum.Rejected += s.Rejected
		sum.ShardTrials += s.ShardTrials
		traces += n.srv.Traces().Started()
	}
	return sum, traces
}

// traceSweepCluster dispatches the grid once through a plain coordinator
// and once through an instrumented one (timing transport, span tree with
// the workers' grafted subtrees); both must equal the local pool's
// answer bit for bit.
func traceSweepCluster(cfg config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	fl, err := startFleet()
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	tt := &timedTransport{inner: http.DefaultTransport}
	inst := cluster.New([]string{fl.nodes[0].url, fl.nodes[1].url}, cluster.Options{HTTPClient: &http.Client{Transport: tt, Timeout: 2 * time.Minute}})

	local, err := runSweep(gridSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	checkCells(o, "local", local.results, nil, false)
	untraced, err := runSweep(gridSeed(cfg.seed, 0), faultcast.WithSweepDispatcher(fl.coord))
	if err != nil {
		return nil, err
	}
	checkCells(o, "untraced cluster", untraced.results, local.results, false)

	before, tracesBefore := fl.totals()
	col := telemetry.NewCollector(2, 1)
	tr := col.StartTrace("sweep-cluster")
	traced, err := runSweep(gridSeed(cfg.seed, 0), faultcast.WithSweepDispatcher(inst), faultcast.WithSweepSpan(tr.Root()))
	tr.Finish()
	if err != nil {
		return nil, err
	}
	checkCells(o, "traced cluster", traced.results, local.results, false)
	after, tracesAfter := fl.totals()

	// Worker-side trees arrive grafted under the coordinator's shard
	// spans; their roots carry the coordinator's trace ID.
	spans := newSpanStats()
	agg := newEngineAgg()
	var engine time.Duration
	walk(tr.Root(), func(sp *telemetry.Span) {
		if _, ok := attr(sp, "coordinator_trace"); !ok {
			return
		}
		spans.add(sp)
		walk(sp, func(c *telemetry.Span) {
			if c.Name == "execute" {
				engine += time.Duration(c.DurNs)
			}
		})
	})
	shapes := map[string]shape{}
	for _, c := range traced.sp.Cells() {
		shapes[c.PlanKey] = planShape(c.Plan())
	}
	var rtt, handler, residual []float64
	var bytesOut, bytesIn, buckets int
	for _, c := range tt.calls {
		bytesOut += c.bytesOut
		bytesIn += c.bytesIn
		if !c.succeeded {
			continue
		}
		rtt = append(rtt, ms(c.rtt))
		handler = append(handler, ms(c.handler))
		residual = append(residual, ms(c.rtt-c.handler))
		// A worker runs a shard as whole lane blocks across its tally
		// buckets (exec.RunShardBlocks); the buckets are the batches.
		agg.batch(shapes[c.req.PlanKey], c.req.Trials, 0)
		buckets += (c.req.Trials + c.req.Batch - 1) / c.req.Batch
	}
	agg.engine, agg.batches = engine, buckets
	agg.fill(o.layers, 0, workers())
	spans.fill(o.layers)

	st := inst.Status()
	o.layers["faultcast.compile_s"] = traced.compile.Seconds()
	o.layers["cluster.shards"] = float64(st.ShardsDispatched)
	o.layers["cluster.retries"] = float64(st.ShardRetries)
	o.layers["cluster.failovers"] = float64(st.LocalFailovers)
	o.layers["cluster.shard_rtt_ms.p50"] = quantile(rtt, 0.5)
	o.layers["cluster.shard_rtt_ms.p99"] = quantile(rtt, 0.99)
	o.layers["cluster.worker_shard_ms.p50"] = quantile(handler, 0.5)
	o.layers["cluster.bytes_out"] = float64(bytesOut)
	o.layers["cluster.bytes_in"] = float64(bytesIn)
	o.layers["service.handler_ms.p50"] = quantile(handler, 0.5)
	o.layers["service.handler_ms.p99"] = quantile(handler, 0.99)
	o.layers["service.residual_ms.p50"] = quantile(residual, 0.5)
	o.layers["service.residual_ms.p99"] = quantile(residual, 0.99)
	if executed := after.ShardTrials - before.ShardTrials; executed > 0 {
		o.layers["cluster.useful_ratio"] = float64(decidedTrials(traced.results)) / float64(executed)
	}
	encode, err := encodeMicros(traced.sp)
	if err != nil {
		return nil, err
	}
	o.layers["cluster.encode_us"] = encode
	fillServiceCounters(o.layers, before, after)
	o.layers["telemetry.traces_started"] = float64(tracesAfter - tracesBefore)
	o.layers["telemetry.overhead_pct"] = 100 * (traced.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()
	return o, writeSpans(cfg, []*telemetry.Trace{tr})
}

// encodeMicros times the coordinator's per-cell wire encoding
// (NewShardRequest plus JSON marshal) over the grid's cells, in
// microseconds per cell.
func encodeMicros(sp *faultcast.SweepPlan) (float64, error) {
	cells := sp.Cells()
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := range cells {
			req, err := cluster.NewShardRequest(cells[i].Config)
			if err != nil {
				return 0, err
			}
			req.Index = i
			req.BaseSeed = cells[i].Config.Seed
			req.Trials, req.Batch = 512, 32
			if _, err := json.Marshal(req); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n), nil
}
