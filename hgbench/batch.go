package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fasthgp"
)

// A run sets up at least setupRepeats times and for at least setupFor in
// all; setup_s is the median of one set-up.
const (
	setupRepeats = 5
	setupFor     = time.Second
)

// batchSpec describes one batch workload: its inputs, the hgpart
// arguments for one input, and the latency limit goodput counts runs
// within.
type batchSpec struct {
	inputs func(dir string, seed int64) ([]*instance, error)
	args   func(in *instance) []string
	limit  time.Duration
	// minRuns is the single-client phase's least number of runs: three
	// per input, so every per-input median rests on three samples, and
	// for algo1-table2 enough to keep the tail in one band of the tail
	// ladder on any machine.
	minRuns int
}

var (
	vcycleSpec = batchSpec{
		inputs: vcycleInputs,
		args: func(in *instance) []string {
			return []string{"-in", in.path, "-format", "hgr", "-algo", "multilevel", "-starts", "1", "-parallel", "1", "-verify", "-v"}
		},
		limit:   1200 * time.Millisecond, // 1.5 × the development seed's single-client p95
		minRuns: 3 * vcycleDraws,
	}
	algo1Spec = batchSpec{
		inputs: table2Inputs,
		args: func(in *instance) []string {
			return []string{"-in", in.path, "-algo", "algI", "-starts", "200", "-parallel", strconv.Itoa(runtime.NumCPU()), "-verify", "-v"}
		},
		limit:   330 * time.Millisecond, // 1.5 × the development seed's single-client p95
		minRuns: 200,                    // p95; more than 3 * 8 * table2Draws
	}
)

func runVCycle(cfg config) (*outcome, error) { return runBatch(cfg, vcycleSpec) }
func runAlgo1(cfg config) (*outcome, error)  { return runBatch(cfg, algo1Spec) }

// setupBatch generates the inputs, timing it with timeSetup, and
// returns the last set with the median set-up time. Every repeat
// rewrites the same files.
func setupBatch(cfg config, spec batchSpec) ([]*instance, float64, error) {
	dir := filepath.Join(cfg.work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var ins []*instance
	setup, err := timeSetup(func(int) (err error) {
		ins, err = spec.inputs(dir, cfg.seed)
		return err
	}, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("generating inputs: %w", err)
	}
	return ins, setup, nil
}

// timeSetup runs set-up number 0, 1, ... until it has run setupRepeats
// times and for setupFor in all, each from a collected heap, and
// returns the median time of one set-up. between, if set, runs untimed
// before every set-up but the first.
func timeSetup(setup func(i int) error, between func() error) (float64, error) {
	var times []float64
	for begin := time.Now(); len(times) < setupRepeats || time.Since(begin) < setupFor; {
		if between != nil && len(times) > 0 {
			if err := between(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(len(times)); err != nil {
			return 0, err
		}
		times = append(times, seconds(time.Since(start)))
	}
	return median(times), nil
}

// serialShare is the part of the measuring time a batch run spends with
// a single client; the rest runs nproc clients at once.
const serialShare = 0.5

// runBatch measures a batch workload in two phases, re-verifying every
// answer. A single client first runs hgpart on the inputs round-robin,
// each run due when the previous one ends, for at least spec.minRuns
// runs; then nproc clients do the same at once, which shows the
// machine's capacity for independent jobs.
func runBatch(cfg config, spec batchSpec) (*outcome, error) {
	ins, setup, err := setupBatch(cfg, spec)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	serialFor := time.Duration(float64(cfg.seconds) * serialShare)
	serial := runSerial(cfg, spec, ins, serialFor, out)
	var slowdowns []float64
	if out.correct {
		slowdowns = runConcurrent(cfg, spec, ins, cfg.seconds-serialFor, serial, out)
	}
	pass := serial.passWall(len(ins))
	within, busy := 0, 0.0
	for _, w := range serial.walls {
		busy += w
		if w <= spec.limit.Seconds() {
			within++
		}
	}
	tailV, tailP, beyond := tail(serial.walls)
	out.set("setup_s", setup, "s")
	out.set("wall_s", pass, "s")
	out.set("latency_p50_ms", median(serial.walls)*1000, "ms")
	out.set("latency_tail_ms", tailV*1000, "ms")
	out.set("goodput_rps", float64(within)/busy, "1/s")
	out.set("capacity_rps", float64(runtime.NumCPU()*len(ins))/pass/median(slowdowns), "1/s")
	out.set("cut_total", float64(serial.cutTotal()), "count")
	out.set("peak_rss_mib", serial.meanRSS(), "MiB")
	out.set("ok_ratio", okRatio(out), "ratio")
	out.note("a job is one pass over %d inputs, %d pins; one client made %d runs, tail is p%g (%d beyond it), p95 %.4gs",
		len(ins), pinsOf(ins), len(serial.walls), tailP, beyond, percentile(serial.walls, 95))
	out.note("%d clients at once made %d runs, median slowdown %.3g per run", runtime.NumCPU(), len(slowdowns), median(slowdowns))
	out.note("goodput counts verified runs within %s", spec.limit)
	return out, nil
}

func okRatio(o *outcome) float64 {
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

func pinsOf(ins []*instance) int {
	n := 0
	for _, in := range ins {
		n += in.h.NumPins()
	}
	return n
}

// serialResult is the single-client phase of a batch run.
type serialResult struct {
	walls []float64 // seconds, one per run
	cut   []int64   // verified cut per input
	rss   []float64 // peak RSS per input (largest over its runs), MiB
}

// inputWall is the median run wall of input k of n.
func (r serialResult) inputWall(k, n int) float64 {
	var ws []float64
	for i := k; i < len(r.walls); i += n {
		ws = append(ws, r.walls[i])
	}
	return median(ws)
}

// passWall is the wall time of one job, a pass over the n inputs: the
// sum of each input's median run wall.
func (r serialResult) passWall(n int) float64 {
	t := 0.0
	for k := 0; k < n; k++ {
		t += r.inputWall(k, n)
	}
	return t
}

func (r serialResult) cutTotal() int64 {
	var t int64
	for _, c := range r.cut {
		t += c
	}
	return t
}

// meanRSS is the inputs' peak RSS, averaged over inputs.
func (r serialResult) meanRSS() float64 {
	t := 0.0
	for _, m := range r.rss {
		t += m
	}
	return t / float64(max(len(r.rss), 1))
}

// runSerial runs hgpart on the inputs round-robin, one run at a time,
// for at least spec.minRuns runs (and one per input), then for as long
// as the next run, judged by the input's last one, ends within budget.
// A run whose cut differs from an earlier run on the same input breaks
// the determinism contract and fails the benchmark run.
func runSerial(cfg config, spec batchSpec, ins []*instance, budget time.Duration, out *outcome) serialResult {
	r := serialResult{cut: make([]int64, len(ins)), rss: make([]float64, len(ins))}
	last := make([]time.Duration, len(ins))
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		k := i % len(ins)
		if i >= max(len(ins), spec.minRuns) && time.Now().Add(last[k]).After(deadline) {
			break
		}
		wall, rss, cut, err := runOnce(cfg, spec, ins[k])
		if !out.record(ins[k].name, err) {
			break // the run is already incorrect; report what was measured
		}
		if i >= len(ins) && cut != r.cut[k] {
			out.correct = false
			out.note("%s: cut %d, an earlier identical run gave %d", ins[k].name, cut, r.cut[k])
		}
		r.walls = append(r.walls, wall)
		r.cut[k], r.rss[k] = cut, math.Max(r.rss[k], rss)
		last[k] = time.Duration(wall * float64(time.Second))
	}
	return r
}

// runConcurrent runs nproc clients at once, each cycling through the
// inputs from its own offset, for at least one run each and then for as
// long as its next run, judged by the single client's time on that
// input and the client's last slowdown, ends within budget. Every run
// must reproduce the single client's cut. It returns each run's
// slowdown: its wall time over the single client's median wall on the
// same input, so the inputs a client happened to draw do not move the
// figure.
func runConcurrent(cfg config, spec batchSpec, ins []*instance, budget time.Duration, serial serialResult, out *outcome) []float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var slowdowns []float64
	deadline := time.Now().Add(budget)
	clients := runtime.NumCPU()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			slowdown := 0.0 // the client's last; 0 before its first run
			for i := c * len(ins) / clients; ; i++ {
				k := i % len(ins)
				single := serial.inputWall(k, len(ins))
				if slowdown > 0 && time.Now().Add(time.Duration(single*slowdown*float64(time.Second))).After(deadline) {
					return
				}
				wall, _, cut, err := runOnce(cfg, spec, ins[k])
				mu.Lock()
				ok := out.record(ins[k].name, err)
				if ok && cut != serial.cut[k] {
					out.correct, ok = false, false
					out.note("%s: cut %d next to other clients, %d alone", ins[k].name, cut, serial.cut[k])
				}
				if ok {
					slowdown = wall / single
					slowdowns = append(slowdowns, slowdown)
				}
				mu.Unlock()
				if !ok {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return slowdowns
}

// record counts one attempted run and reports whether it succeeded; a
// failed run or an answer the oracle rejects fails the benchmark run.
func (o *outcome) record(name string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.correct = false
		o.note("%s: %v", name, err)
	}
	return err == nil
}

// runOnce runs hgpart on one input and re-verifies its answer.
func runOnce(cfg config, spec batchSpec, in *instance) (wall, rssMiB float64, cut int64, err error) {
	pr, err := runProc(filepath.Join(cfg.bin, "hgpart"), spec.args(in))
	if err != nil {
		return 0, 0, 0, err
	}
	if cut, err = checkBipartition(in, pr.stdout); err != nil {
		return 0, 0, 0, fmt.Errorf("oracle: %w", err)
	}
	return seconds(pr.wall), mib(pr.maxRSS), cut, nil
}

// procResult is one finished process.
type procResult struct {
	wall   time.Duration // from start until exit, output fully written
	maxRSS int64         // peak resident set, KiB
	stdout []byte
}

// runProc runs a program to completion and reports its wall time and
// peak RSS. A non-zero exit is an error carrying its standard error.
func runProc(bin string, args []string) (procResult, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procResult{}, fmt.Errorf("%s: %v: %s", filepath.Base(bin), err, strings.TrimSpace(stderr.String()))
	}
	pr := procResult{wall: wall, stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		pr.maxRSS = ru.Maxrss
	}
	return pr, nil
}

// checkBipartition rebuilds the side list hgpart -v printed into a
// bipartition — every module exactly once — and has the oracle recompute
// the cut hgpart claimed.
func checkBipartition(in *instance, stdout []byte) (int64, error) {
	var cut int64 = -1
	p := fasthgp.NewBipartition(in.h.NumVertices())
	seen := make([]bool, in.h.NumVertices())
	lines := 0
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "cutsize: "); ok {
			if _, err := fmt.Sscan(rest, &cut); err != nil {
				return 0, fmt.Errorf("cutsize line %q: %w", line, err)
			}
			continue
		}
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") || len(f) != 2 {
			continue
		}
		v, ok := in.byName[f[0]]
		if !ok || seen[v] {
			return 0, fmt.Errorf("unknown or repeated module %q", f[0])
		}
		seen[v] = true
		lines++
		switch f[1] {
		case "L":
			p.Assign(v, fasthgp.Left)
		case "R":
			p.Assign(v, fasthgp.Right)
		default:
			return 0, fmt.Errorf("module %s on side %q, want L or R", f[0], f[1])
		}
	}
	if cut < 0 || lines != in.h.NumVertices() {
		return 0, fmt.Errorf("no cutsize line or %d side lines for %d modules", lines, in.h.NumVertices())
	}
	if _, err := fasthgp.VerifyCut(in.h, p, int(cut)); err != nil {
		return 0, err
	}
	return cut, nil
}
