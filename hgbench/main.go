// Command hgbench is the repository's end-to-end benchmark. It runs one
// workload against the real binaries (hgpart, hgpartd) with tracing off,
// re-verifies every answer with the oracle from outside the program, and
// prints every end-to-end metric by name with its unit. With -trace 1 it
// instead calls each layer's public function in process, on the same
// inputs, and prints per-layer times and counts.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash hgbench/run.sh --workload vcycle-powerlaw --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 unless a
// run could not be set up or an answer failed the oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Seeds named for later claims: tune against devSeed, confirm on
// heldOutSeed, which no change may be developed against.
const (
	devSeed     = 1
	heldOutSeed = 20261017
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are human-readable lines printed before the JSON result
	// (percentile used for the tail, pins per job, ...).
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout
	bin      string // directory holding hgpart and hgpartd
	work     string // per-run scratch directory inside the checkout
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run    func(cfg config) (*outcome, error)
	traced func(cfg config) (*outcome, error)
}{
	"vcycle-powerlaw": {runVCycle, traceVCycle},
	"algo1-table2":    {runAlgo1, traceAlgo1},
	"serve-mixed":     {runServe, traceServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: vcycle-powerlaw, algo1-table2, serve-mixed")
		seed     = fs.Int64("seed", devSeed, "workload seed: drives input generation and the request mix")
		seconds  = fs.Int("seconds", 30, "how long the run measures (BENCHMARK.json: run_seconds)")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics from the real binaries; 1 = per-layer metrics from in-process calls")
		root     = fs.String("root", ".", "repository checkout the benchmark runs in")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "hgbench: want -workload in %v, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, bin: filepath.Join(*root, ".bench_build", "bin")}
	for _, b := range []string{"hgpart", "hgpartd"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			fmt.Fprintf(stderr, "hgbench: %v (build the binaries with hgbench/run.sh)\n", err)
			return 1
		}
	}
	scratchParent := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(scratchParent, 0o755); err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(scratchParent, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	fmt.Fprintf(stdout, "machine: %s\n", machineJSON(cfg))
	runner := w.run
	if cfg.trace {
		runner = w.traced
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	printOutcome(stdout, cfg, out)
	if !out.correct {
		fmt.Fprintln(stderr, "hgbench: an answer failed the oracle")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printOutcome prints the human-readable table and, last, the JSON line.
func printOutcome(w io.Writer, cfg config, out *outcome) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s, %s measured\n", cfg.workload, cfg.seed, mode, cfg.seconds)
	for _, n := range out.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		dir := directions[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", n, m.Value, m.Unit, dir)
	}
	errRatio := 0.0
	if out.attempted > 0 {
		errRatio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", "error_ratio", errRatio, "ratio", "(lower is better)")
	for n, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // only a run that already failed leaves a metric undefined
			out.metrics[n] = m
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, out.metrics}
	b, _ := json.Marshal(res) // plain structs and finite floats: cannot fail
	fmt.Fprintln(w, string(b))
}

// directions annotates end-to-end metrics in the human-readable table.
var directions = map[string]string{
	"setup_s":         "(lower is better)",
	"wall_s":          "(lower is better)",
	"cut_total":       "(lower is better)",
	"peak_rss_mib":    "(lower is better)",
	"ok_ratio":        "(higher is better)",
	"latency_p50_ms":  "(lower is better)",
	"latency_tail_ms": "(lower is better)",
	"goodput_rps":     "(higher is better)",
	"capacity_rps":    "(higher is better)",
}

// machineJSON records what a result was measured on.
func machineJSON(cfg config) string {
	commit := os.Getenv("HGBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seeds":      map[string]int64{"development": devSeed, "held_out": heldOutSeed},
		"workload":   cfg.workload,
		"trace":      cfg.trace,
	}
	b, _ := json.Marshal(m) // strings and numbers only: cannot fail
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo, if any.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
