package harness

import (
	"math"
	"strings"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/protocols/flooding"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

func quickOpts() Options {
	return Options{Quick: true, Trials: 40, Seed: 1}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Note:    "a note",
		Headers: []string{"a", "bb"},
	}
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", "y")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a note", "longer", "1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.AddRow("x,y", `q"z`)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""z"`) {
		t.Fatalf("CSV escaping broken:\n%s", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "A1", "A2", "A3", "A4", "A5", "A6", "B1", "F1", "OP1", "OP2", "G1"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E3"); !ok {
		t.Fatal("E3 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("phantom experiment found")
	}
}

// Each experiment must run in Quick mode and produce non-empty tables with
// consistent row widths. These are smoke tests; the PASS/FAIL verdicts of
// full-size runs are recorded in EXPERIMENTS.md.
func checkTables(t *testing.T, tables []*Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables produced")
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Headers) {
				t.Fatalf("table %q: row width %d != header width %d", tb.Title, len(row), len(tb.Headers))
			}
		}
	}
}

func TestRunE1Quick(t *testing.T)  { checkTables(t, RunE1(quickOpts())) }
func TestRunE2Quick(t *testing.T)  { checkTables(t, RunE2(quickOpts())) }
func TestRunE3Quick(t *testing.T)  { checkTables(t, RunE3(quickOpts())) }
func TestRunE4Quick(t *testing.T)  { checkTables(t, RunE4(quickOpts())) }
func TestRunE5Quick(t *testing.T)  { checkTables(t, RunE5(quickOpts())) }
func TestRunE6Quick(t *testing.T)  { checkTables(t, RunE6(quickOpts())) }
func TestRunE7Quick(t *testing.T)  { checkTables(t, RunE7(quickOpts())) }
func TestRunE8Quick(t *testing.T)  { checkTables(t, RunE8(quickOpts())) }
func TestRunE9Quick(t *testing.T)  { checkTables(t, RunE9(quickOpts())) }
func TestRunE10Quick(t *testing.T) { checkTables(t, RunE10(quickOpts())) }
func TestRunE11Quick(t *testing.T) { checkTables(t, RunE11(quickOpts())) }
func TestRunA1Quick(t *testing.T)  { checkTables(t, RunA1(quickOpts())) }
func TestRunA2Quick(t *testing.T)  { checkTables(t, RunA2(quickOpts())) }
func TestRunA3Quick(t *testing.T)  { checkTables(t, RunA3(quickOpts())) }
func TestRunA4Quick(t *testing.T)  { checkTables(t, RunA4(quickOpts())) }
func TestRunA5Quick(t *testing.T)  { checkTables(t, RunA5(quickOpts())) }
func TestRunA6Quick(t *testing.T)  { checkTables(t, RunA6(quickOpts())) }
func TestRunB1Quick(t *testing.T)  { checkTables(t, RunB1(quickOpts())) }
func TestRunF1Quick(t *testing.T)  { checkTables(t, RunF1(quickOpts())) }
func TestRunOP1Quick(t *testing.T) { checkTables(t, RunOP1(quickOpts())) }
func TestRunOP2Quick(t *testing.T) { checkTables(t, RunOP2(quickOpts())) }
func TestRunG1Quick(t *testing.T)  { checkTables(t, RunG1(quickOpts())) }

// TestQuickVerdictsMostlyPass: in Quick mode the feasibility experiments
// should still produce PASS rows where the theory predicts success (the
// trial counts are small, so allow some slack, but a wholesale failure
// indicates a broken experiment).
func TestQuickVerdictsMostlyPass(t *testing.T) {
	tables := RunE1(quickOpts())
	pass, total := 0, 0
	for _, row := range tables[0].Rows {
		total++
		if row[len(row)-1] == "PASS" {
			pass++
		}
	}
	if pass*4 < total*3 {
		t.Fatalf("E1 quick: only %d/%d rows pass", pass, total)
	}
}

func TestRunAllWritesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	var sb strings.Builder
	RunAll(Options{Quick: true, Trials: 20, Seed: 2}, &sb)
	out := sb.String()
	for _, id := range []string{"E1", "E5", "E10", "A3"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}

func TestVerdict(t *testing.T) {
	if verdict(true) != "PASS" || verdict(false) != "FAIL" {
		t.Fatal("verdict strings changed")
	}
}

func TestWindowHelpers(t *testing.T) {
	if c := omissionWindowC(0.5); c < 2 || c > 3 {
		t.Fatalf("omissionWindowC(0.5) = %v", c)
	}
	if c := maliciousWindowC(0.3); c <= 0 {
		t.Fatalf("maliciousWindowC(0.3) = %v", c)
	}
	if c := maliciousWindowC(0.6); c != 64 {
		t.Fatalf("maliciousWindowC above 1/2 should cap, got %v", c)
	}
}

// TestCompletionStatsMatchesSequential: completionStats runs on the exec
// pool, but its mean, std and failed count must be bit-identical to a
// sequential stat.MeanStd over one reused runner, on E7's line(16) cell —
// at E7's round budget and at a short one that fails some trials.
func TestCompletionStatsMatchesSequential(t *testing.T) {
	g := graph.Line(16)
	proto := flooding.New(g, 0)
	seed := quickOpts().cellSeed("E7|n=16")
	sawFailures := false
	for _, rounds := range []int{proto.Rounds(6), g.Radius(0) + 2} {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: msg1,
			NewNode: proto.NewNode, Rounds: rounds,
			TrackCompletion: true,
		}
		r := newRunner(cfg)
		wantMean, wantStd, wantFailed := stat.MeanStd(300, seed, func(s uint64) (float64, bool) {
			res, err := r.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			return float64(res.CompletedRound + 1), res.Success
		})
		mean, std, failed := completionStats(300, seed, cfg)
		if math.Float64bits(mean) != math.Float64bits(wantMean) ||
			math.Float64bits(std) != math.Float64bits(wantStd) || failed != wantFailed {
			t.Fatalf("rounds=%d: completionStats = (%v, %v, %d), sequential (%v, %v, %d)",
				rounds, mean, std, failed, wantMean, wantStd, wantFailed)
		}
		sawFailures = sawFailures || failed > 0
	}
	if !sawFailures {
		t.Fatal("no cell failed a trial: the failed path is untested")
	}
}
