// Command perfbench is faultcast's end-to-end benchmark. It drives the
// library, the tally store, the service, the cluster coordinator and the
// load-schedule generator from outside, through their public functions,
// on one of four workloads:
//
//	estimate-fixed     closed-loop fixed-budget Plan.Estimate calls
//	sweep-almost-safe  a 40-cell almost-safe grid, cold into a store, then warm
//	serve-mix          an open-loop request mix against an in-process service
//	sweep-cluster      the same grid through a two-worker loopback cluster
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separate instrumented run. Everything before that line is a readable
// table. Wrong outputs are counted as failed operations, never hidden.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scratch is a private directory under the checkout's build area for
	// store segments, removed when the run ends; spanDir receives a traced
	// run's span dump.
	scratch string
	spanDir string
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

var workloads = map[string]func(config) (*outcome, error){
	"estimate-fixed":    runEstimateFixed,
	"sweep-almost-safe": runSweepAlmostSafe,
	"serve-mix":         runServeMix,
	"sweep-cluster":     runSweepCluster,
}

var workloadOrder = []string{"estimate-fixed", "sweep-almost-safe", "serve-mix", "sweep-cluster"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = instrumented run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if cfg.workload == "all" {
		if err := runAll(cfg, trace); err != nil {
			fatalf("%v", err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %v or all)", cfg.workload, workloadOrder)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	build := filepath.Join(wd, ".bench_build")
	cfg.scratch = filepath.Join(build, fmt.Sprintf("scratch-%d", os.Getpid()))
	cfg.spanDir = filepath.Join(build, "spans")
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	out, err := run(cfg)
	os.RemoveAll(cfg.scratch)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res := out.result(cfg)
	printTable(os.Stdout, cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func workers() int { return runtime.GOMAXPROCS(0) }

// runAll runs every workload in its own process, one after another, so
// each reports its own peak memory; their reports are printed in turn.
func runAll(cfg config, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workloads did not complete", failed)
	}
	return nil
}
