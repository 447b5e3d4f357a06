package harness

import (
	"fmt"

	"faultcast/internal/graph"
	"faultcast/internal/kucera"
	"faultcast/internal/protocols/decay"
	"faultcast/internal/protocols/radiorepeat"
	"faultcast/internal/radio"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunB1 compares the paper's schedule-repetition algorithm (Theorem 3.4,
// Omission-Radio) with a randomized topology-oblivious Decay baseline:
// the paper's algorithm buys determinism and collision-freedom with
// central preprocessing; Decay needs nothing but n and pays a log-factor
// of collisions. Both must be almost-safe under omission failures; the
// table reports their time-to-completion side by side.
func RunB1(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "B1 — Thm 3.4 Omission-Radio vs randomized Decay baseline (radio, omission p = 0.5)",
		Note:    "both almost-safe; Omission-Radio is deterministic and collision-free, Decay is topology-oblivious but collides",
		Headers: []string{"graph", "algorithm", "horizon", "mean completion", "success", "95% CI", "target", "verdict"},
	}
	type cse struct {
		ng    namedGraph
		sched *radio.Schedule
	}
	cases := []cse{
		{namedGraph{graph.Layered(4), 0}, radio.LayeredSchedule(4)},
		{namedGraph{graph.Grid(5, 5), 0}, radio.Greedy(graph.Grid(5, 5), 0)},
	}
	if o.Quick {
		cases = cases[:1]
	}
	const p = 0.5
	for _, tc := range cases {
		n := tc.ng.g.N()
		target := almostSafe(n)

		repeatProto, err := radiorepeat.New(tc.ng.g, tc.ng.src, tc.sched, radiorepeat.OmissionVariant, omissionWindowC(p))
		if err != nil {
			panic(err)
		}
		decayProto := decay.New(tc.ng.g)
		variants := []struct {
			name    string
			newNode func(int) sim.Node
			rounds  int
		}{
			{"omission-radio (Thm 3.4)", repeatProto.NewNode, repeatProto.Rounds()},
			{"decay (randomized baseline)", decayProto.NewNode, decayProto.Rounds(40 + 8*tc.ng.g.Radius(tc.ng.src))},
		}
		for _, v := range variants {
			mean, _, failed := completionStats(o.Trials, o.cellSeed(fmt.Sprintf("B1|%s|%s", tc.ng.g.Name(), v.name)), &sim.Config{
				Graph: tc.ng.g, Model: sim.Radio, Fault: sim.Omission, P: p,
				Source: tc.ng.src, SourceMsg: msg1,
				NewNode: v.newNode, Rounds: v.rounds,
				TrackCompletion: true,
			})
			est := stat.Proportion{Successes: o.Trials - failed, Trials: o.Trials}
			lo, hi := est.Wilson(1.96)
			t.AddRow(tc.ng.g.Name(), v.name, v.rounds, fmt.Sprintf("%.0f", mean),
				est.Rate(), fmt.Sprintf("[%.3f,%.3f]", lo, hi), target, verdict(hi >= target))
			o.logf("B1 %s/%s: %v", tc.ng.g.Name(), v.name, est)
		}
	}
	return []*Table{t}
}

// RunA6 sweeps the Kučera serial fan-out ρ: larger ρ drives the time
// constant towards the O(L) ideal but weakens the error exponent
// c = log_ρ 2 of e^(−Ω(L^c)) — the trade hidden in Lemma 3.2's "for any
// constant c < 1".
func RunA6(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A6 — Kučera composition: serial fan-out ρ vs time constant and error exponent (L = 256, p = 0.2)",
		Note:    "τ/L falls towards 1·κ0 as ρ grows; the error exponent c = log_ρ(2) falls with it",
		Headers: []string{"ρ", "plan", "time τ", "τ/L", "predicted err Q", "exponent c=log_ρ(2)"},
	}
	l := 256
	if o.Quick {
		l = 64
	}
	for _, rho := range []int{2, 4, 8, 16} {
		plan, err := kucera.BuildPlan(l, 0.2, kucera.Options{Rho: rho})
		if err != nil {
			panic(err)
		}
		c := logB(2, float64(rho))
		t.AddRow(rho, plan.String(), plan.G.Time,
			float64(plan.G.Time)/float64(plan.G.Length), plan.G.Err, c)
	}
	return []*Table{t}
}

func logB(x, base float64) float64 {
	return ln(x) / ln(base)
}
