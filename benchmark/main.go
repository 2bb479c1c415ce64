// Command benchmark is the repo's benchmark: in-sync sessions per core
// over live UDP, with a per-layer cost table that reconciles to it. See
// README.md for the metric glossary and how to read the output.
//
// One binary, two roles. The parent is the load generator (GOMAXPROCS=1,
// one goroutine, two UDP sockets, N seeded players on a virtual device
// clock); it spawns itself as the hub role (GOMAXPROCS=1), which hosts
// the system under test on a kernel UDP loopback socket. Run from the
// repo root:
//
//	go run -C benchmark . -all -seed 1          # every workload, every metric
//	go run -C benchmark . -aa -seed 1           # two sets, compared to the bounds
//	go run -C benchmark . -traced -workload steady_swb32 -seed 1
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1   # driver contract
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the hub up; setup_s is the
// median, and the last set-up is the one the run measures on.
const setupRepeats = 5

// defaultRunSeconds is the run length the checked-in bounds were measured
// at (BENCHMARK.json's run_seconds).
const defaultRunSeconds = 24

// hubOnCPU is the CPU hub children are pinned to (-1 = unpinned).
var hubOnCPU = -1

// errInvalid marks a run the generator-honesty check discarded.
var errInvalid = errors.New("run invalid: the numbers would measure the generator, not the hub")

func main() {
	role := flag.String("role", "loadgen", "process role: loadgen (parent) or hub (child, internal)")
	capacity := flag.Int("capacity", 64, "hub role: session capacity")
	hubCodec := flag.String("hub-codec", "swb32", "hub role: chat uplink profile (swb32 or lossless)")
	hubCPU := flag.Int("hub-cpu", -1, "hub role: CPU to pin to (-1 = unpinned)")

	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", defaultRunSeconds, "run length after set-up, in seconds")
	trace := flag.Int("trace", 0, "0: print the end-to-end metrics; 1: print the per-layer metrics (adds the traced shadow run)")
	all := flag.Bool("all", false, "run every workload untraced, then traced; print every metric; write the results JSON")
	aa := flag.Bool("aa", false, "run the end-to-end set twice on this build and compare to BENCHMARK.json's bounds")
	traced := flag.Bool("traced", false, "only the traced shadow run and the in-process layer timings for -workload")
	outDir := flag.String("out", "", "directory for span files and results JSON (default: the benchmark's out/)")
	flag.Parse()

	if *role == "hub" {
		if err := runHubRole(*capacity, *hubCodec, *hubCPU); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark hub:", err)
			os.Exit(1)
		}
		return
	}

	// The load generator is one goroutine on one thread of execution; with
	// the hub child that makes the two threads the reference box has.
	runtime.GOMAXPROCS(1)
	var err error
	if hubOnCPU, err = placeLoadgen(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cannot pin CPUs, running unpinned:", err)
		hubOnCPU = -1
	}
	dir, err := resolveOutDir(*outDir)
	if err == nil {
		switch {
		case *all:
			err = runAll(*seed, *seconds, dir)
		case *aa:
			err = runAA(*seed, *seconds)
		case *traced:
			err = runTracedOnly(*workload, *seed, dir)
		default:
			err = runDriver(*workload, *seed, *seconds, *trace, dir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resolveOutDir picks where artifacts go: the benchmark's own out/
// directory, whether the command runs from the repo root or (as `go run
// -C benchmark` does) from inside the benchmark directory.
func resolveOutDir(flagged string) (string, error) {
	dir := flagged
	if dir == "" {
		dir = "out"
		if _, err := os.Stat("workload.go"); err != nil {
			dir = filepath.Join("benchmark", "out")
		}
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// liveAttempts is how many times a run is measured before the command
// gives up: a run the generator-honesty check discards reports nothing and
// is measured again, because the usual cause (the host stealing the
// loadgen's CPU for a few tens of milliseconds) is transient.
const liveAttempts = 3

// liveOnce produces one valid live run of a workload, re-measuring when
// the generator-honesty check discards an attempt. The result of the last
// attempt is returned even if it is invalid; callers check res.Invalid.
func liveOnce(w Workload, seed int64, seconds int) (*LiveResult, error) {
	for attempt := 1; ; attempt++ {
		res, err := liveAttempt(w, seed, seconds)
		if err != nil || len(res.Invalid) == 0 || attempt == liveAttempts {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s attempt %d discarded (%v; host steal %.2f%%); measuring again\n",
			w.Name, attempt, res.Invalid, 100*res.Layers["loadgen.host_steal_frac"].Value)
	}
}

// liveAttempt performs one complete live run: repeated set-ups, the
// measured run, scoring.
func liveAttempt(w Workload, seed int64, seconds int) (*LiveResult, error) {
	plan := NewPlan(w, seed)
	tl := NewTimeline(seconds)
	var setups []float64
	for i := 0; ; i++ {
		lr, err := newLiveRun(plan, tl)
		if err != nil {
			return nil, err
		}
		took, err := lr.setup()
		if err != nil {
			lr.close()
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			lr.close()
			continue
		}
		final, err := lr.run()
		lr.close()
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", w.Name, err)
		}
		return scoreLive(lr, setups, final)
	}
}

// driverLine is the contract's last stdout line.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// runDriver is the BENCHMARK.json contract: one workload, one seed, one
// JSON object as the last line of stdout.
func runDriver(name string, seed int64, seconds, trace int, outDir string) error {
	w, ok := WorkloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := liveOnce(w, seed, seconds)
	if err != nil {
		return err
	}
	if len(res.Invalid) > 0 {
		// Show what was measured, on stderr only: an invalid run reports no
		// metrics.
		printResult(os.Stderr, res, true)
		return fmt.Errorf("%w: %v", errInvalid, res.Invalid)
	}
	line := driverLine{Correct: len(res.Incorrect) == 0, Attempted: res.Attempted, Failed: res.HardFailed, Metrics: res.EndToEnd}
	if trace != 0 {
		lay, err := runLayers(w, seed, outDir, res)
		if err != nil {
			return err
		}
		line.Correct = line.Correct && len(lay.Incorrect) == 0
		res.Incorrect = append(res.Incorrect, lay.Incorrect...)
		line.Metrics = res.Layers
	}
	table := EndToEndMetrics
	if trace != 0 {
		table = PerLayerMetrics
	}
	if err := checkComplete(line.Metrics, table); err != nil {
		return err
	}
	printResult(os.Stdout, res, trace != 0)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printMetrics prints "name value unit" lines in name order.
func printMetrics(f *os.File, m Metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-44s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printResult prints one workload's metrics for a human.
func printResult(f *os.File, r *LiveResult, layers bool) {
	fmt.Fprintf(f, "== %s seed %d: operations attempted=%d out_of_sync=%d hard_failed=%d (converged sessions %d, isd_err samples %d, media_late samples %d)\n",
		r.Workload, r.Seed, r.Attempted, r.OutOfSync, r.HardFailed, r.Converged, r.ISDErrSamples, r.MediaLateSamples)
	printMetrics(f, r.EndToEnd)
	if layers {
		printMetrics(f, r.Layers)
	}
	for _, s := range r.Incorrect {
		fmt.Fprintln(f, "INCORRECT:", s)
	}
	for _, s := range r.Invalid {
		fmt.Fprintln(f, "INVALID:", s)
	}
}

// runAll is the one command: every workload untraced, then its traced
// run; every metric printed; results JSON written; non-zero exit when a
// run is invalid or a correctness check fails.
func runAll(seed int64, seconds int, outDir string) error {
	var results []*LiveResult
	bad := 0
	for _, w := range Workloads {
		res, err := liveOnce(w, seed, seconds)
		if err != nil {
			return err
		}
		if len(res.Invalid) > 0 {
			printResult(os.Stderr, res, true)
			return fmt.Errorf("%w: %v", errInvalid, res.Invalid)
		}
		lay, err := runLayers(w, seed, outDir, res)
		if err != nil {
			return err
		}
		res.Incorrect = append(res.Incorrect, lay.Incorrect...)
		printResult(os.Stdout, res, true)
		bad += len(res.Incorrect)
		results = append(results, res)
	}
	path := filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", seed))
	b, err := json.MarshalIndent(struct {
		GeneratedAt string        `json:"generated_at"`
		RunSeconds  int           `json:"run_seconds"`
		Results     []*LiveResult `json:"results"`
	}{time.Now().UTC().Format(time.RFC3339), seconds, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if bad > 0 {
		return fmt.Errorf("%d correctness checks failed", bad)
	}
	return nil
}
