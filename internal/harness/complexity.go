package harness

import (
	"fmt"
	"math"

	"faultcast"
	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/kucera"
	"faultcast/internal/lowerbound"
	"faultcast/internal/protocols/flooding"
	"faultcast/internal/protocols/radiorepeat"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/radio"
	"faultcast/internal/rng"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunE7 exercises Theorem 3.1: flooding over a BFS tree achieves the
// optimal Θ(D + log n) time under omission failures — and beats
// Simple-Omission's Θ(n·log n) by an ever-growing factor.
func RunE7(o Options) []*Table {
	o = o.withDefaults()
	timing := &Table{
		Title:   "E7a (Thm 3.1) — flooding completion time vs D + log n (omission, p = 0.5)",
		Note:    "mean completion time must grow linearly in D + log2 n; final row reports the least-squares fit",
		Headers: []string{"graph", "n", "D", "D+log2(n)", "mean time", "std", "success"},
	}
	sizes := []int{32, 64, 128, 256}
	if o.Quick {
		sizes = []int{16, 32, 64}
	}
	var xs, ys []float64
	const p = 0.5
	for _, n := range sizes {
		g := graph.Line(n)
		proto := flooding.New(g, 0)
		rounds := proto.Rounds(6)
		var failures int
		mean, std, failed := completionStats(o.Trials, o.cellSeed(fmt.Sprintf("E7|n=%d", n)), &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: p,
			Source: 0, SourceMsg: msg1,
			NewNode: proto.NewNode, Rounds: rounds,
			TrackCompletion: true,
		})
		failures = failed
		d := float64(g.Radius(0))
		x := d + math.Log2(float64(n))
		xs = append(xs, x)
		ys = append(ys, mean)
		timing.AddRow(g.Name(), n, int(d), x, mean, std,
			fmt.Sprintf("%d/%d", o.Trials-failures, o.Trials))
		o.logf("E7 line(%d): mean=%.1f", n, mean)
	}
	slope, intercept, r2 := stat.LinearFit(xs, ys)
	timing.AddRow("FIT: time ≈ a(D+log n)+b", "", "", "",
		fmt.Sprintf("a=%.2f b=%.1f", slope, intercept),
		fmt.Sprintf("R²=%.4f", r2), verdict(r2 > 0.99))

	cross := &Table{
		Title:   "E7b — flooding (Θ(D+log n)) vs Simple-Omission (Θ(n·log n)) running time",
		Note:    "both almost-safe at p=0.5; the speedup factor must grow roughly linearly in n/D·... (who wins and by how much)",
		Headers: []string{"n", "flood rounds", "simple rounds", "speedup"},
	}
	for _, n := range sizes {
		g := graph.Line(n)
		fl := flooding.New(g, 0).Rounds(6)
		so := simpleomission.New(g, 0, sim.MessagePassing, omissionWindowC(p)).Rounds()
		cross.AddRow(n, fl, so, fmt.Sprintf("%.1fx", float64(so)/float64(fl)))
	}
	return []*Table{timing, cross}
}

// RunE8 exercises Theorem 3.2 / Lemma 3.2: the composed Kučera-style
// algorithm broadcasts on lines and trees under limited malicious
// failures, with time O(L) per branch and error e^(-Ω(L^c)).
func RunE8(o Options) []*Table {
	o = o.withDefaults()
	const p = 0.2
	algebra := &Table{
		Title:   "E8a (Lem 3.2) — CO1/CO2 composition plans at p = 0.2",
		Note:    "time/L must stay bounded (O(L)); predicted error shrinks superpolynomially",
		Headers: []string{"L", "plan", "time τ", "τ/L", "delay δ", "predicted err Q"},
	}
	lengths := []int{8, 16, 64, 256}
	if o.Quick {
		lengths = []int{8, 16, 64}
	}
	for _, l := range lengths {
		plan, err := kucera.BuildPlan(l, p, kucera.Options{})
		if err != nil {
			panic(err)
		}
		algebra.AddRow(l, plan.String(), plan.G.Time,
			float64(plan.G.Time)/float64(plan.G.Length), plan.G.Delay, plan.G.Err)
	}

	runs := &Table{
		Title:   "E8b (Thm 3.2) — composed algorithm, limited malicious, flipping adversary, p = 0.2",
		Note:    "success >= 1 - 1/n on lines and trees; time O(D + log^α n)",
		Headers: []string{"graph", "n", "D", "rounds", "success", "95% CI", "target", "verdict"},
	}
	cases := []namedGraph{{graph.Line(17), 0}, {graph.Line(33), 0}, {graph.KaryTree(31, 2), 0}}
	if o.Quick {
		cases = cases[:2]
	}
	// The composed algorithm is fully expressible through the public API
	// (Composed + Alpha), so E8b is a declarative sweep over the graph
	// axis; plan compilation — the Kučera composition plan per graph —
	// happens once inside CompileSweep.
	results := runSweep(faultcast.SweepSpec{
		Graphs:      sweepGraphs(cases),
		Models:      []faultcast.Model{faultcast.MessagePassing},
		Faults:      []faultcast.Fault{faultcast.LimitedMalicious},
		Adversaries: []faultcast.AdversaryKind{faultcast.FlipAdv},
		Algorithms:  []faultcast.Algorithm{faultcast.Composed},
		Alpha:       1.5,
		Ps:          []float64{p},
		Seed:        o.Seed,
		Budget:      o.sweepBudget(true),
	})
	for i, ng := range cases {
		target := almostSafe(ng.g.N())
		est := results[i].Estimate
		runs.AddRow(ng.g.Name(), ng.g.N(), ng.g.Radius(ng.src), results[i].Cell.Rounds(),
			est.Rate, fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi), target, verdict(est.Hi >= target))
		o.logf("E8 %s: %v", ng.g.Name(), est)
	}
	return []*Table{algebra, runs}
}

// RunE9 exercises Lemma 3.3: on the layered graph G_m, fault-free radio
// broadcast takes exactly m+1 steps (schedule construction + exhaustive
// lower bound for small m).
func RunE9(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E9 (Lem 3.3) — fault-free radio opt on the layered graph G_m",
		Note:    "the (m+1)-step schedule completes; exhaustive search confirms opt = m+1 where tractable",
		Headers: []string{"m", "n", "schedule len", "completes", "exhaustive opt", "verdict"},
	}
	ms := []int{1, 2, 3, 4, 6, 8, 10}
	if o.Quick {
		ms = []int{1, 2, 3, 5}
	}
	for _, m := range ms {
		g := graph.Layered(m)
		s := radio.LayeredSchedule(m)
		ok, err := radio.Complete(g, 0, s)
		if err != nil {
			panic(err)
		}
		optCell := "-"
		pass := ok && s.Len() == m+1
		if g.N() <= radio.MaxExhaustiveN {
			opt, err := radio.OptimalLength(g, 0)
			if err != nil {
				panic(err)
			}
			optCell = fmt.Sprint(opt)
			pass = pass && opt == m+1
		}
		t.AddRow(m, g.N(), s.Len(), ok, optCell, verdict(pass))
		o.logf("E9 m=%d done", m)
	}
	return []*Table{t}
}

// RunE10 exercises Lemma 3.4 / Theorem 3.3: on G_m, every candidate
// schedule family needs far more than opt + O(log n) steps before each
// layer-3 node accumulates the c·log n hits almost-safety requires.
func RunE10(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E10 (Lem 3.4/Thm 3.3) — steps needed for min-hit coverage on G_m at p = 0.5",
		Note:    "every family needs >> opt + need steps: O(opt + log n) almost-safe broadcast is impossible",
		Headers: []string{"m", "n", "opt", "need (c·log n)", "opt+need", "family", "steps to cover", "ratio"},
	}
	ms := []int{6, 8, 10}
	if o.Quick {
		ms = []int{5, 7}
	}
	const p = 0.5
	for _, m := range ms {
		g := graph.Layered(m)
		need, _ := lowerbound.RequiredLength(m, p)
		opt := m + 1
		budget := opt + need
		families := []struct {
			name string
			gen  func(steps int) *lowerbound.Schedule
		}{
			{"singles (round robin)", func(k int) *lowerbound.Schedule {
				return lowerbound.RoundRobinSingles(m, k)
			}},
			{"random sets |A|=m/2", func(k int) *lowerbound.Schedule {
				return lowerbound.RandomSets(m, k, m/2, rng.New(o.Seed))
			}},
			{"geometric sweep", func(k int) *lowerbound.Schedule {
				return lowerbound.GeometricSweep(m, k, rng.New(o.Seed))
			}},
		}
		for _, fam := range families {
			steps := lowerbound.StepsToCover(need, 1<<18, fam.gen)
			ratio := float64(steps) / float64(budget)
			t.AddRow(m, g.N(), opt, need, budget, fam.name, steps, fmt.Sprintf("%.1fx", ratio))
		}
		o.logf("E10 m=%d done", m)
	}

	sim10 := &Table{
		Title:   "E10b — simulated: (opt + need)-step singles schedule fails on G_m under omission",
		Note:    "running the best fault-free-style schedule for opt+c·log n steps leaves nodes uninformed w.p. >> 1/n",
		Headers: []string{"m", "steps", "expected uninformed", "P[some node uninformed] >= ", "1/n"},
	}
	for _, m := range ms {
		g := graph.Layered(m)
		need, _ := lowerbound.RequiredLength(m, p)
		steps := m + 1 + need
		s := lowerbound.RoundRobinSingles(m, steps)
		exp := s.ExpectedUninformed(p)
		worst := s.FailureProbability(p)
		sim10.AddRow(m, steps, exp, worst, 1/float64(g.N()))
	}
	return []*Table{t, sim10}
}

// RunE11 exercises Theorem 3.4: Omission-Radio and Malicious-Radio are
// almost-safe in time opt·ceil(c·log n) on arbitrary graphs.
func RunE11(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E11 (Thm 3.4) — O(opt·log n) radio algorithms (schedule step -> m-step series)",
		Note:    "success >= 1 - 1/n for omission at p=0.6 and malicious at p = 0.5·p*(Δ)",
		Headers: []string{"graph", "variant", "p", "opt |A|", "m", "rounds", "success", "95% CI", "target", "verdict"},
	}
	type cse struct {
		ng    namedGraph
		sched *radio.Schedule
	}
	cases := []cse{
		{namedGraph{graph.Line(24), 0}, radio.LineSchedule(24)},
		{namedGraph{graph.Layered(4), 0}, radio.LayeredSchedule(4)},
		{namedGraph{graph.Grid(5, 5), 0}, radio.Greedy(graph.Grid(5, 5), 0)},
	}
	if o.Quick {
		cases = cases[:2]
	}
	for _, tc := range cases {
		delta := tc.ng.g.MaxDegree()
		pStar := stat.RadioThreshold(delta)
		variants := []struct {
			v     radiorepeat.Variant
			fault sim.FaultType
			p     float64
			c     float64
			adv   sim.Adversary
		}{
			{radiorepeat.OmissionVariant, sim.Omission, 0.6, omissionWindowC(0.6), nil},
			{radiorepeat.MaliciousVariant, sim.Malicious, pStar * 0.5,
				maliciousWindowC(pStar*0.5/(pStar*0.5+pow(1-pStar*0.5, delta+1))) * (2 / pow(1-pStar*0.5, delta+1)),
				adversary.Flip{Wrong: []byte("0")}},
		}
		for _, va := range variants {
			proto, err := radiorepeat.New(tc.ng.g, tc.ng.src, tc.sched, va.v, va.c)
			if err != nil {
				panic(err)
			}
			target := almostSafe(tc.ng.g.N())
			est := successRate(o, fmt.Sprintf("E11|%s|%v", tc.ng.g.Name(), va.v), target, &sim.Config{
				Graph: tc.ng.g, Model: sim.Radio, Fault: va.fault, P: va.p,
				Source: tc.ng.src, SourceMsg: msg1,
				NewNode: proto.NewNode, Rounds: proto.Rounds(),
				Adversary: va.adv,
			})
			lo, hi := est.Wilson(1.96)
			t.AddRow(tc.ng.g.Name(), va.v.String(), va.p, tc.sched.Len(), proto.WindowLen(),
				proto.Rounds(), est.Rate(), fmt.Sprintf("[%.3f,%.3f]", lo, hi), target,
				verdict(hi >= target))
			o.logf("E11 %s/%v: %v", tc.ng.g.Name(), va.v, est)
		}
	}
	return []*Table{t}
}
