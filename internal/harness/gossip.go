package harness

import (
	"fmt"

	"faultcast/internal/graph"
	"faultcast/internal/protocols/gossip"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunG1 exercises the gossiping extension (the all-to-all primitive of
// the paper's reference [13], the source of Lemma 3.1): tree-flooding of
// rumor sets completes all-to-all dissemination in O(D + log n) rounds
// with probability 1 − 1/n under omission failures, for any p < 1.
func RunG1(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "G1 (extension, ref [13]) — almost-safe gossiping via rumor-set flooding (MP, omission)",
		Note:    "all n rumors reach all n nodes; time stays O(D + log n) and scales by ~1/(1-p)",
		Headers: []string{"graph", "n", "D", "p", "rounds", "mean completion", "success", "95% CI", "target", "verdict"},
	}
	graphs := []namedGraph{{graph.Line(32), 0}, {graph.Grid(6, 6), 0}, {graph.KaryTree(31, 2), 0}}
	if o.Quick {
		graphs = graphs[:2]
	}
	for _, ng := range graphs {
		n := ng.g.N()
		target := almostSafe(n)
		for _, p := range []float64{0.3, 0.5, 0.7} {
			proto := gossip.New(ng.g, ng.src)
			a := 3 / (1 - p) // horizon multiplier grows with the retry factor
			rounds := proto.Rounds(a)
			full := gossip.FullDigest(n)
			succ := 0
			mean, _, failed := completionStats(o.Trials, o.cellSeed(fmt.Sprintf("G1|%s|p=%v", ng.g.Name(), p)), &sim.Config{
				Graph: ng.g, Model: sim.MessagePassing, Fault: sim.Omission, P: p,
				Source: ng.src, SourceMsg: full,
				NewNode: proto.NewNode, Rounds: rounds,
				TrackCompletion: true,
			})
			succ = o.Trials - failed
			est := stat.Proportion{Successes: succ, Trials: o.Trials}
			lo, hi := est.Wilson(1.96)
			t.AddRow(ng.g.Name(), n, ng.g.Radius(ng.src), p, rounds,
				fmt.Sprintf("%.0f", mean), est.Rate(),
				fmt.Sprintf("[%.3f,%.3f]", lo, hi), target, verdict(hi >= target))
			o.logf("G1 %s p=%.1f: %v", ng.g.Name(), p, est)
		}
	}
	return []*Table{t}
}
