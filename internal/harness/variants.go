package harness

import (
	"fmt"
	"sync/atomic"

	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/protocols/anonymous"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/streaming"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunA4 compares the synchronized phase algorithm (Simple-Malicious) with
// the paper's unsynchronized sliding-window variant (§2.2.2 discussion):
// same p < 1/2 guarantee, but the streaming variant needs no global clock
// or enumeration and pipelines hops in O(D·m) instead of n·m.
func RunA4(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A4 — synchronized phases vs unsynchronized sliding window (malicious MP, p = 0.25)",
		Note:    "both must be almost-safe; the streaming variant's time scales with D·m, the phase algorithm's with n·m",
		Headers: []string{"graph", "variant", "rounds", "mean completion", "success", "95% CI", "target", "verdict"},
	}
	graphs := []namedGraph{{graph.Line(24), 0}, {graph.KaryTree(31, 2), 0}}
	if o.Quick {
		graphs = []namedGraph{{graph.Line(12), 0}}
	}
	const p = 0.25
	for _, ng := range graphs {
		n := ng.g.N()
		target := almostSafe(n)
		type variant struct {
			name    string
			newNode func(int) sim.Node
			rounds  int
		}
		phase := simplemalicious.New(ng.g, ng.src, sim.MessagePassing, maliciousWindowC(p))
		stream := streaming.New(ng.g, ng.src, maliciousWindowC(p))
		variants := []variant{
			{"phases (Simple-Malicious)", phase.NewNode, phase.Rounds()},
			{"sliding window (streaming)", stream.NewNode, stream.Rounds(4)},
		}
		for _, v := range variants {
			succ := 0
			meanDone, _, failed := completionStats(o.Trials, o.cellSeed(fmt.Sprintf("A4|%s|%s", ng.g.Name(), v.name)), &sim.Config{
				Graph: ng.g, Model: sim.MessagePassing, Fault: sim.Malicious, P: p,
				Source: ng.src, SourceMsg: msg1,
				NewNode: v.newNode, Rounds: v.rounds,
				Adversary:       adversary.Flip{Wrong: []byte("0")},
				TrackCompletion: true,
			})
			succ = o.Trials - failed
			est := stat.Proportion{Successes: succ, Trials: o.Trials}
			lo, hi := est.Wilson(1.96)
			t.AddRow(ng.g.Name(), v.name, v.rounds, fmt.Sprintf("%.0f", meanDone),
				est.Rate(), fmt.Sprintf("[%.3f,%.3f]", lo, hi), target, verdict(hi >= target))
			o.logf("A4 %s/%s: %v", ng.g.Name(), v.name, est)
		}
	}
	return []*Table{t}
}

// RunA5 exercises the §2.1 anonymous radio schedules: distinct labels plus
// a modulo-K (or prime-power) slot discipline replace the global
// enumeration of Simple-Omission, at a cost of a factor ~K in time.
func RunA5(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A5 — anonymous radio schedules (§2.1): modulo-K and prime-power slots, omission p = 0.5",
		Note:    "no enumeration or shared phase structure, zero collisions by construction; time pays a ~K factor",
		Headers: []string{"graph", "schedule", "rounds", "collisions", "success", "95% CI", "target", "verdict"},
	}
	// The modulo-K discipline works on any graph; the prime-power
	// schedule's slots thin out geometrically (node i transmits at
	// p_i^k), so informing a depth-D path takes a horizon multiplicative
	// in the primes along it — it is the paper's existence construction
	// for unknown K, demonstrated here on shallow graphs only.
	type cse struct {
		ng   namedGraph
		kind anonymous.ScheduleKind
		a    float64
		p    float64
	}
	cases := []cse{
		{namedGraph{graph.Line(16), 0}, anonymous.ModuloK, 6, 0.5},
		{namedGraph{graph.Grid(4, 4), 0}, anonymous.ModuloK, 6, 0.5},
		{namedGraph{graph.Star(9), 1}, anonymous.PrimePowers, 60, 0.3},
		{namedGraph{graph.KaryTree(7, 2), 0}, anonymous.PrimePowers, 60, 0.3},
	}
	if o.Quick {
		cases = []cse{
			{namedGraph{graph.Line(8), 0}, anonymous.ModuloK, 6, 0.5},
			{namedGraph{graph.Star(5), 1}, anonymous.PrimePowers, 60, 0.3},
		}
	}
	for _, tc := range cases {
		ng := tc.ng
		n := ng.g.N()
		target := almostSafe(n)
		proto, err := anonymous.New(ng.g, tc.kind, n)
		if err != nil {
			panic(err)
		}
		rounds := proto.Rounds(ng.g.Radius(ng.src), tc.a)
		var collisions atomic.Int64
		cfg := &sim.Config{
			Graph: ng.g, Model: sim.Radio, Fault: sim.Omission, P: tc.p,
			Source: ng.src, SourceMsg: msg1,
			NewNode: proto.NewNode, Rounds: rounds,
		}
		// Full sample: the collision tally spans every trial, so the
		// zero-collision verdict reads the whole stream.
		est := estimateCell(o.Trials, o.cellSeed(fmt.Sprintf("A5|%s|%v", ng.g.Name(), tc.kind)), stat.StopRule{}, func() stat.Trial {
			r := newRunner(cfg)
			return func(seed uint64) bool {
				res, err := r.Run(seed)
				if err != nil {
					panic(err)
				}
				collisions.Add(int64(res.Stats.Collisions))
				return res.Success
			}
		})
		lo, hi := est.Wilson(1.96)
		t.AddRow(ng.g.Name(), tc.kind.String(), rounds, collisions.Load(), est.Rate(),
			fmt.Sprintf("[%.3f,%.3f]", lo, hi), target, verdict(hi >= target && collisions.Load() == 0))
		o.logf("A5 %s/%v: %v", ng.g.Name(), tc.kind, est)
	}
	return []*Table{t}
}
