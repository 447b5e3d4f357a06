package harness

import (
	"fmt"
	"testing"

	"faultcast"
	"faultcast/internal/graph"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// TestSweepMatchesHandRolledLoop is the port's value-identity proof: the
// E1-shaped grid run through runSweep must produce, cell for cell, the
// exact estimates of the pre-refactor hand-rolled loop — a fresh
// sim.Config + protocol per cell, its own sequential estimation stream
// (stat.EstimateStreamFrom), the same stopping rule — when that loop is
// given the same derived base seeds. Holding seeds fixed isolates the refactor: any divergence would
// be a scheduling or batching change, not a seeding one.
func TestSweepMatchesHandRolledLoop(t *testing.T) {
	o := Options{Quick: true, Trials: 60, Seed: 0x5eed}.withDefaults()
	graphs := standardGraphs(o)
	ps := []float64{0.3, 0.5, 0.7}
	sp, err := faultcast.CompileSweep(faultcast.SweepSpec{
		Graphs:     sweepGraphs(graphs),
		Models:     []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Faults:     []faultcast.Fault{faultcast.Omission},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		Ps:         ps,
		Seed:       o.Seed,
		Budget:     o.sweepBudget(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	results := runSweep(faultcast.SweepSpec{
		Graphs:     sweepGraphs(graphs),
		Models:     []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Faults:     []faultcast.Fault{faultcast.Omission},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		Ps:         ps,
		Seed:       o.Seed,
		Budget:     o.sweepBudget(true),
	})
	i := 0
	for _, ng := range graphs {
		for _, model := range []sim.Model{sim.MessagePassing, sim.Radio} {
			for _, p := range ps {
				// The old loop, verbatim: per-cell protocol construction,
				// per-cell estimation pool, stop on the 1.3×-widened band.
				proto := simpleomission.New(ng.g, ng.src, model, omissionWindowC(p))
				target := almostSafe(ng.g.N())
				want := stat.EstimateStreamFrom(stat.Proportion{}, o.Trials, sp.Cells()[i].Config.Seed,
					stat.StopRule{Target: target, UseTarget: true, Z: 1.96 * 1.3},
					func() stat.Trial {
						r := newRunner(&sim.Config{
							Graph: ng.g, Model: model, Fault: sim.Omission, P: p,
							Source: ng.src, SourceMsg: msg1,
							NewNode: proto.NewNode, Rounds: proto.Rounds(),
						})
						return func(seed uint64) bool {
							res, err := r.Run(seed)
							if err != nil {
								t.Error(err)
								return false
							}
							return res.Success
						}
					})
				got := results[i].Estimate
				if got.Trials != want.Trials || got.Succeeds != want.Successes {
					t.Fatalf("cell %d (%s/%v/p=%v): sweep %d/%d != hand-rolled %d/%d",
						i, ng.g.Name(), model, p,
						got.Succeeds, got.Trials, want.Successes, want.Trials)
				}
				i++
			}
		}
	}
}

// TestSweepGoldenDeterminism pins the exact per-cell outcomes of a small
// sweep under the splitmix seed-derivation scheme. Any change to seed
// derivation, batch semantics, stopping bands, or the engine's trial
// streams shows up here as a concrete diff. Regenerate the table below by
// running the test with -update-golden reasoning: copy the logged actual
// values (they are deterministic on every machine and worker count).
func TestSweepGoldenDeterminism(t *testing.T) {
	o := Options{Quick: true, Trials: 48, Seed: 0x5eed}.withDefaults()
	results := runSweep(faultcast.SweepSpec{
		Graphs:     []faultcast.SweepGraph{{Graph: graph.Line(8)}, {Graph: graph.Star(6), Source: 1}},
		Models:     []faultcast.Model{faultcast.MessagePassing},
		Faults:     []faultcast.Fault{faultcast.Omission},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		Ps:         []float64{0.2, 0.5, 0.8},
		Seed:       o.Seed,
		Budget:     o.sweepBudget(true),
	})
	golden := []struct{ succ, trials int }{
		{48, 48}, {48, 48}, {47, 48},
		{47, 48}, {47, 48}, {48, 48},
	}
	if len(results) != len(golden) {
		t.Fatalf("got %d cells, want %d", len(results), len(golden))
	}
	for i, want := range golden {
		got := results[i].Estimate
		if got.Succeeds != want.succ || got.Trials != want.trials {
			t.Errorf("cell %d: got %d/%d, golden %d/%d (p=%v graph=%s)",
				i, got.Succeeds, got.Trials, want.succ, want.trials,
				results[i].Cell.Config.P, results[i].Cell.Config.Graph.Name())
		}
	}
}

// TestCellSeedDerivation: harness cell seeds must be rng.Derive of
// (master, key) — distinct per key, stable per master, and no longer the
// master-correlated XOR scheme.
func TestCellSeedDerivation(t *testing.T) {
	o := Options{Seed: 0x5eed}
	a := o.cellSeed("E3|p=0.5|c=5")
	b := o.cellSeed("E3|p=0.5|c=17")
	if a == b {
		t.Fatal("distinct cell keys derived equal seeds")
	}
	if a != o.cellSeed("E3|p=0.5|c=5") {
		t.Fatal("cell seed derivation unstable")
	}
	if a == o.Seed^5 || a == o.Seed {
		t.Fatal("cell seed suspiciously equal to the old XOR scheme")
	}
	keys := map[string]uint64{}
	for _, id := range []string{"E1", "E3", "E5", "A2", "F1"} {
		for p := 0; p < 10; p++ {
			k := fmt.Sprintf("%s|p=%d", id, p)
			keys[k] = o.cellSeed(k)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range keys {
		if seen[s] {
			t.Fatal("cell seed collision across experiments")
		}
		seen[s] = true
	}
}
