package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fasthgp"
	"fasthgp/internal/checkpoint"
	"fasthgp/internal/coarsen"
	"fasthgp/internal/core"
	"fasthgp/internal/engine"
	"fasthgp/internal/fm"
	"fasthgp/internal/intersect"
	"fasthgp/internal/kway"
	"fasthgp/internal/multilevel"
	"fasthgp/internal/partition"
	"fasthgp/internal/rebalance"
	"fasthgp/internal/verify"
)

// perLayer lists every per-layer metric. A traced run reports all of
// them; a layer its workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"netio.parse_s", "s"}, {"netio.write_s", "s"},
	{"intersect.build_s", "s"}, {"intersect.arcs", "count"}, {"intersect.bytes_computed", "bytes"},
	{"graph.bfs_s", "s"}, {"core.partial_s", "s"}, {"core.complete_s", "s"},
	{"core.boundary_nets", "count"}, {"core.best_hit_ratio", "ratio"},
	{"engine.cpu_over_wall", "ratio"}, {"engine.starts_run", "count"},
	{"coarsen.hierarchy_s", "s"}, {"coarsen.levels", "count"}, {"coarsen.coarsest_vertices", "count"},
	{"coarsen.coarsest_pins", "count"}, {"multilevel.initial_s", "s"},
	{"fm.improve_s", "s"}, {"fm.gain", "count"},
	{"multilevel.flow_rest_s", "s"}, {"flow.rounds", "count"}, {"flow.accepted_ratio", "ratio"},
	{"flow.nodes", "count"}, {"flow.augmentations", "count"}, {"flow.gain", "count"},
	{"rebalance.enforce_s", "s"}, {"rebalance.moves", "count"},
	{"kway.partition_s", "s"}, {"verify.kway_check_s", "s"}, {"verify.check_s", "s"},
	{"checkpoint.append_s", "s"}, {"portfolio.run_p50_ms", "ms"},
	{"hgpartd.cache_hit_ratio", "ratio"}, {"hgpartd.hit_p50_ms", "ms"}, {"hgpartd.miss_p50_ms", "ms"},
	{"hgpartd.refused_ratio", "ratio"}, {"hgpartd.tier0_ratio", "ratio"},
	{"hgpartd.wal_bytes_per_req", "bytes"}, {"hgpartd.overhead_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.unattributed_ratio", "ratio"},
}

// span is one traced iteration: per-layer times (seconds) and counts,
// summed over the iteration's calls into each layer.
type span map[string]float64

// timed runs f, adds its wall time to layer name and returns it.
func (s span) timed(name string, f func()) float64 {
	start := time.Now()
	f()
	d := seconds(time.Since(start))
	s[name] += d
	return d
}

// traceIter is one traced pass over one input. It returns the time of
// the layers that make up the whole run — the spans that cover the
// untraced run end to end, so that the rest can be reported as
// unattributed — and the verified cut it computed.
type traceIter func(in *instance, s span) (covered float64, cut int64, err error)

// traceLoop runs passes over all inputs until budget is spent (at least
// one) and reduces every layer to its median over passes. Each pass's
// cut total must equal the one the real binary reported.
func traceLoop(budget time.Duration, ins []*instance, e2eCut int64, iter traceIter, finish func(span)) (span, float64, int, error) {
	var spans []span
	var covered []float64
	deadline := time.Now().Add(budget)
	for len(spans) == 0 || time.Now().Before(deadline) {
		runtime.GC() // start every pass from a collected heap
		s := span{}
		var pass float64
		var cut int64
		for _, in := range ins {
			c, k, err := iter(in, s)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", in.name, err)
			}
			pass, cut = pass+c, cut+k
		}
		if cut != e2eCut {
			return nil, 0, 0, fmt.Errorf("in-process cut total %d, hgpart %d: the library and the binary disagree", cut, e2eCut)
		}
		if finish != nil {
			finish(s)
		}
		spans = append(spans, s)
		covered = append(covered, pass)
	}
	med := span{}
	for name := range spans[0] {
		var xs []float64
		for _, s := range spans {
			xs = append(xs, s[name])
		}
		med[name] = median(xs)
	}
	return med, median(covered), len(spans), nil
}

// traceBatch measures a batch workload twice on the same inputs: half
// the time untraced through hgpart (for the end-to-end time of a pass
// over the inputs, which the trace is compared with), half in process
// through iter. finish, if set, turns a pass's summed counters into
// ratios.
func traceBatch(cfg config, spec batchSpec, iter traceIter, finish func(span)) (*outcome, error) {
	ins, _, err := setupBatch(cfg, spec)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	serial := runSerial(cfg, spec, ins, cfg.seconds/2, out)
	if !out.correct {
		return finishTrace(cfg, out, span{}, 0, 0), nil
	}
	e2e, cut := serial.passWall(len(ins)), serial.cutTotal()
	layers, covered, n, err := traceLoop(cfg.seconds/2, ins, cut, iter, finish)
	if err != nil {
		out.correct = false
		out.note("traced run: %v", err)
		layers = span{}
	}
	out.note("untraced pass over the inputs %.4gs (%d runs); traced layers cover %.4gs (median of %d passes)", e2e, len(serial.walls), covered, n)
	return finishTrace(cfg, out, layers, e2e, covered), nil
}

// unattributedTolerance bounds trace.unattributed_ratio per workload:
// the ratios measured on seeds 1–3 (vcycle-powerlaw 0.02–0.14,
// algo1-table2 0.13–0.19, serve-mixed 0.23–0.51), widened by 0.1 either
// way. Process start-up and exit are outside every layer on the batch
// workloads; HTTP, the job table, the cache and a client sharing the
// cores are outside every layer on serve-mixed.
var unattributedTolerance = map[string][2]float64{
	"vcycle-powerlaw": {-0.1, 0.25},
	"algo1-table2":    {0.05, 0.3},
	"serve-mixed":     {0.1, 0.65},
}

// finishTrace fills every per-layer metric, 0 where the workload does
// not run the layer, and notes whether the unattributed share is
// within its tolerance.
func finishTrace(cfg config, out *outcome, layers span, e2e, covered float64) *outcome {
	u := unattributed(e2e, covered)
	layers["trace.unattributed_ratio"] = u
	tol := unattributedTolerance[cfg.workload]
	verdict := "within"
	if u < tol[0] || u > tol[1] {
		verdict = "OUTSIDE"
	}
	out.note("trace.unattributed_ratio %.3f is %s its tolerance [%g, %g]", u, verdict, tol[0], tol[1])
	for _, m := range perLayer {
		out.set(m.name, layers[m.name], m.unit)
	}
	return out
}

// writeSides writes one line per module, unbuffered, the way hgpart -v
// writes its answer to standard output.
func writeSides(dir string, h *fasthgp.Hypergraph, side func(v int) string) error {
	f, err := os.CreateTemp(dir, "sides-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	for v := 0; v < h.NumVertices(); v++ {
		if _, err := fmt.Fprintf(f, "  %s %s\n", h.VertexName(v), side(v)); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func sideLetter(p *fasthgp.Bipartition) func(v int) string {
	return func(v int) string {
		if p.Side(v) == fasthgp.Right {
			return "R"
		}
		return "L"
	}
}

// countDual builds h's intersection graph and records the build's time,
// candidate arcs walked, and the bytes of the CSR result it computes.
func countDual(s span, h *fasthgp.Hypergraph, threshold int) *intersect.Result {
	var st intersect.BuildStats
	var ig *intersect.Result
	s.timed("intersect.build_s", func() {
		ig = intersect.BuildCounted(h, intersect.Options{Threshold: threshold, Parallelism: 1}, &st)
	})
	s["intersect.arcs"] += float64(st.TotalArcs)
	words := (ig.G.NumVertices() + 1) + 2*ig.G.NumEdges() + len(ig.NetOf) + len(ig.GVertexOf)
	s["intersect.bytes_computed"] += float64(8 * words)
	return ig
}

// mismatch reports an in-process answer that differs from the one the
// real binary gave on the same input: the library and the CLI must
// agree bit for bit.
func mismatch(what string, inProcess, e2e int64) error {
	if inProcess != e2e {
		return fmt.Errorf("%s: in-process %d, hgpart %d", what, inProcess, e2e)
	}
	return nil
}

func traceVCycle(cfg config) (*outcome, error) {
	return traceBatch(cfg, vcycleSpec, traceVCycleRun, func(s span) {
		if s["flow.rounds"] > 0 {
			s["flow.accepted_ratio"] = s["_flow_accepted"] / s["flow.rounds"]
		}
	})
}

// traceVCycleRun is one hgpart -algo multilevel run in process: parse,
// the V-cycle, the oracle and the side list, plus the V-cycle's stages
// replayed on the same random stream — the hierarchy, the
// coarsest-level Algorithm I (and its dual), the first FM pass after
// each projection, and the ε repair of the finest projection. Flow and
// its rebalance repair are unexported, so multilevel.flow_rest_s is
// the V-cycle's time less the stages timed.
func traceVCycleRun(in *instance, s span) (float64, int64, error) {
	var h *fasthgp.Hypergraph
	var err error
	parse := s.timed("netio.parse_s", func() { h, err = fasthgp.ReadHMetisFile(in.path) })
	if err != nil {
		return 0, 0, err
	}
	opts := multilevel.Options{Starts: 1, Seed: 1, Parallelism: 1}
	var res *multilevel.Result
	bisect := s.timed("_bisect", func() { res, err = multilevel.BisectCtx(context.Background(), h, opts) })
	if err != nil {
		return 0, 0, err
	}
	vc := res.VCycle
	s["flow.rounds"] += float64(vc.FlowRounds)
	s["_flow_accepted"] += float64(vc.FlowAccepted)
	s["flow.nodes"] += float64(vc.FlowNodes)
	s["flow.augmentations"] += float64(vc.FlowAugmentations)
	s["flow.gain"] += float64(vc.FlowGain)

	stages := span{}
	rng := engine.StartRNG(opts.Seed, 0)
	total := h.TotalVertexWeight()
	var levels []*coarsen.Result
	stages.timed("coarsen.hierarchy_s", func() {
		levels = coarsen.BuildHierarchy(h, rng, coarsen.Options{MinVertices: 64, MaxClusterWeight: (total + 63) / 64})
	})
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].Coarse
	}
	s["coarsen.levels"] += float64(len(levels))
	s["coarsen.coarsest_vertices"] += float64(coarsest.NumVertices())
	s["coarsen.coarsest_pins"] += float64(coarsest.NumPins())
	countDual(s, coarsest, 10)
	var init *core.Result
	stages.timed("multilevel.initial_s", func() {
		init, err = core.BipartitionCtx(context.Background(), coarsest, core.Options{Starts: 10, Seed: rng.Int63(),
			Threshold: 10, BalancedBFS: true, Completion: core.CompletionWeighted, Parallelism: 1})
	})
	if err != nil {
		return 0, 0, err
	}
	p := init.Partition
	improve(stages, coarsest, p)
	for i := len(levels) - 1; i >= 0; i-- {
		fine := h
		if i > 0 {
			fine = levels[i-1].Coarse
		}
		p = coarsen.Project(fine.NumVertices(), levels[i].Map, p)
		if i == 0 {
			if _, err := enforce(s, h, p, partition.Constraint{Epsilon: 0.03}); err != nil {
				return 0, 0, err
			}
		}
		improve(stages, fine, p)
	}
	for k, v := range stages {
		s[k] += v
	}
	s["multilevel.flow_rest_s"] += bisect - stages["coarsen.hierarchy_s"] - stages["multilevel.initial_s"] - stages["fm.improve_s"]

	check := s.timed("verify.check_s", func() { _, err = fasthgp.VerifyCut(h, res.Partition, res.CutSize) })
	if err != nil {
		return 0, 0, err
	}
	write := s.timed("netio.write_s", func() { err = writeSides(filepath.Dir(in.path), h, sideLetter(res.Partition)) })
	return parse + bisect + check + write, int64(res.CutSize), err
}

// improve runs one FM pass on p in place, as refinement does after a
// projection, and records its time and cut gain.
func improve(s span, h *fasthgp.Hypergraph, p *fasthgp.Bipartition) {
	if p.Validate(h) != nil {
		return
	}
	before := partition.CutSize(h, p)
	s.timed("fm.improve_s", func() { _, _ = fm.Improve(h, p, fm.Options{BalanceFraction: 0.1}) }) // refinement is best effort, as in the V-cycle
	s["fm.gain"] += float64(before - partition.CutSize(h, p))
}

// enforce repairs a copy of p onto c, records the repair's time and the
// modules it moved, and returns the copy.
func enforce(s span, h *fasthgp.Hypergraph, p *fasthgp.Bipartition, c partition.Constraint) (*fasthgp.Bipartition, error) {
	q := p.Clone()
	var err error
	s.timed("rebalance.enforce_s", func() { err = rebalance.Enforce(h, q, c) })
	for v := 0; v < h.NumVertices(); v++ {
		if q.Side(v) != p.Side(v) {
			s["rebalance.moves"]++
		}
	}
	return q, err
}

func traceAlgo1(cfg config) (*outcome, error) {
	return traceBatch(cfg, algo1Spec, traceAlgo1Run, func(s span) {
		s["engine.cpu_over_wall"] = s["_cpu"] / s["_wall"]
		s["core.best_hit_ratio"] = s["_best_hits"] / s["engine.starts_run"]
	})
}

// traceAlgo1Run is one hgpart -algo algI run in process — parse, 200
// starts on the engine, the oracle and the side list — plus every start
// replayed serially through the public stages on the same random
// streams.
func traceAlgo1Run(in *instance, s span) (float64, int64, error) {
	var h *fasthgp.Hypergraph
	var err error
	parse := s.timed("netio.parse_s", func() {
		f, ferr := os.Open(in.path)
		if ferr != nil {
			err = ferr
			return
		}
		defer f.Close()
		h, _, err = fasthgp.ReadNetlistFixed(f)
	})
	if err != nil {
		return 0, 0, err
	}
	opts := core.Options{Starts: 200, Seed: 1, Parallelism: runtime.NumCPU()}
	var res *core.Result
	run := s.timed("_engine", func() { res, err = core.BipartitionCtx(context.Background(), h, opts) })
	if err != nil {
		return 0, 0, err
	}
	es := res.Stats.Engine
	s["_cpu"] += es.CPU.Seconds()
	s["_wall"] += es.Wall.Seconds()
	s["engine.starts_run"] += float64(es.StartsRun)
	for _, c := range es.Cuts {
		if c == es.Cuts[es.BestStart] {
			s["_best_hits"]++
		}
	}
	check := s.timed("verify.check_s", func() { _, err = fasthgp.VerifyCut(h, res.Partition, res.CutSize) })
	if err != nil {
		return 0, 0, err
	}
	write := s.timed("netio.write_s", func() { err = writeSides(filepath.Dir(in.path), h, sideLetter(res.Partition)) })
	if err != nil {
		return 0, 0, err
	}
	ig := countDual(s, h, opts.Threshold)
	if ig.G.NumVertices() > 0 && ig.G.IsConnected() {
		for i := 0; i < opts.Starts; i++ {
			replayStart(s, h, ig, engine.StartRNG(opts.Seed, i))
		}
	}
	if in.draw == 0 {
		if err := traceKWay(s, h); err != nil {
			return 0, 0, fmt.Errorf("k-way: %w", err)
		}
	}
	return parse + run + check + write, int64(res.CutSize), nil
}

// k-way settings: the imbalance-plus-fixed-macros call of a placement
// flow — four parts, ε = 0.03, one module in a hundred pinned.
const (
	kwayParts     = 4
	kwayEpsilon   = 0.03
	kwayPinnedPct = 1
)

// traceKWay times the k-way layers on one Table-2 stand-in, as
// hgpart -k 4 -epsilon 0.03 -fixed would run them: recursive bisection
// and the k-way oracle, then the first split's ε repair and refinement
// on one Algorithm I start over the whole netlist with that split's
// settings and pins but no ε — the unbalanced cut a constrained start
// hands to rebalance.Enforce. No end-to-end workload runs k-way: its run
// time is dominated by that repair, whose cost varies tenfold between
// inputs, so no run of reasonable length is steady.
func traceKWay(s span, h *fasthgp.Hypergraph) error {
	rng := rand.New(rand.NewSource(int64(checkpoint.HashHypergraph(h))))
	fixed := make([]int8, h.NumVertices())
	for v := range fixed {
		fixed[v] = -1
	}
	for _, v := range rng.Perm(len(fixed))[:len(fixed)*kwayPinnedPct/100] {
		fixed[v] = int8(rng.Intn(kwayParts))
	}
	c := partition.Constraint{Epsilon: kwayEpsilon, FixedSide: fixed}
	opts := kway.Options{K: kwayParts, Starts: 50, Seed: 1, Parallelism: 1, Constraint: c}
	var res *kway.Result
	var err error
	s.timed("kway.partition_s", func() { res, err = kway.PartitionCtx(context.Background(), h, opts) })
	if err != nil {
		return err
	}
	var rep *verify.KWayReport
	s.timed("verify.kway_check_s", func() { rep, err = verify.CheckKWay(h, res.Part, kwayParts) })
	if err != nil {
		return err
	}
	if err := checkKWayAnswer(h, c, res, rep); err != nil {
		return err
	}

	split := firstSplitConstraint(c)
	first, err := core.BipartitionCtx(context.Background(), h, core.Options{Starts: 1, Seed: rand.New(rand.NewSource(opts.Seed)).Int63(),
		Threshold: 10, BalancedBFS: true, Completion: core.CompletionWeighted, Parallelism: 1,
		Constraint: partition.Constraint{FixedSide: split.FixedSide}})
	if err != nil {
		return err
	}
	p, err := enforce(s, h, first.Partition, split)
	if err != nil {
		return err
	}
	before := partition.CutSize(h, p)
	s.timed("fm.improve_s", func() { _, _ = fm.Improve(h, p, fm.Options{BalanceFraction: 0.05, Constraint: split}) }) // best effort, as in kway
	s["fm.gain"] += float64(before - partition.CutSize(h, p))
	return nil
}

// checkKWayAnswer holds a k-way result to the oracle's recomputation:
// the same cut nets and connectivity, every part within the ε bound,
// every pinned module in its part.
func checkKWayAnswer(h *fasthgp.Hypergraph, c partition.Constraint, res *kway.Result, rep *verify.KWayReport) error {
	if rep.CutNets != res.CutNets || rep.Connectivity != res.Connectivity {
		return fmt.Errorf("claimed %d cut nets / connectivity %d, oracle recomputed %d / %d",
			res.CutNets, res.Connectivity, rep.CutNets, rep.Connectivity)
	}
	limit := c.MaxSideWeight(h.TotalVertexWeight(), kwayParts)
	for id, w := range rep.PartWeights {
		if w > limit {
			return fmt.Errorf("part %d weighs %d, above the ε bound %d", id, w, limit)
		}
	}
	for v, f := range c.FixedSide {
		if f >= 0 && res.Part[v] != int(f) {
			return fmt.Errorf("module %d pinned to part %d, placed in %d", v, f, res.Part[v])
		}
	}
	return nil
}

// replayStart runs one Algorithm I start through the public stages:
// random longest BFS path and double BFS (graph), partial induction
// and boundary graph (core, self time without its double BFS), and
// Complete-Cut with the winners applied.
func replayStart(s span, h *fasthgp.Hypergraph, ig *intersect.Result, rng *rand.Rand) {
	var u, v int
	start := time.Now()
	u, v, _ = ig.G.LongestBFSPath(rng)
	ig.G.DoubleBFSSides(u, v)
	bfs := time.Since(start)
	s["graph.bfs_s"] += seconds(bfs)
	var pb *core.Partial
	start = time.Now()
	pb = core.PartialFromCut(h, ig, u, v)
	partial := time.Since(start)
	start = time.Now()
	ig.G.DoubleBFSSides(u, v)
	s["core.partial_s"] += seconds(partial - time.Since(start))
	s.timed("core.complete_s", func() { pb.Apply(h, core.CompleteCutGreedy(pb.Boundary)) })
	s["core.boundary_nets"] += float64(len(pb.Boundary.Nets))
}

// firstSplitConstraint is the k-way contract seen by the first
// recursive bisection: parts [0, k/2) on the left, the per-level ε.
func firstSplitConstraint(c partition.Constraint) partition.Constraint {
	kLeft := (kwayParts + 1) / 2
	depth := int(math.Ceil(math.Log2(kwayParts)))
	split := partition.Constraint{Epsilon: math.Pow(1+c.Epsilon, 1/float64(depth)) - 1}
	if c.HasFixed() {
		split.FixedSide = make([]int8, len(c.FixedSide))
		for v, f := range c.FixedSide {
			switch {
			case f < 0:
				split.FixedSide[v] = -1
			case int(f) < kLeft:
				split.FixedSide[v] = 0
			default:
				split.FixedSide[v] = 1
			}
		}
	}
	return split
}

func traceServe(cfg config) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	run, err := runServeLoad(half)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	run.account(out)
	layers := span{}
	// The daemon's figures come from the open loop, at the fixed rate:
	// the closed loop's connections share the cores with the client.
	// Hits are classified over all replies, so a pair first answered in
	// the open loop stays the miss.
	all := run.all()
	hit, _ := classify(all)
	var hitMS, missMS, overheadMS, late []float64
	oks, refused, tier0 := 0, 0, 0
	for i, r := range run.open {
		late = append(late, millis(r.late))
		switch {
		case r.status == 429 || r.status == 503:
			refused++
		case r.ok():
			oks++
			if r.tier == 0 {
				tier0++
			}
			if hit[i] {
				hitMS = append(hitMS, millis(r.service()))
			} else {
				missMS = append(missMS, millis(r.service()))
				overheadMS = append(overheadMS, millis(r.service())-float64(r.wallMS))
			}
		}
	}
	layers["hgpartd.cache_hit_ratio"] = float64(len(hitMS)) / float64(max(oks, 1))
	layers["hgpartd.hit_p50_ms"] = median(hitMS)
	layers["hgpartd.miss_p50_ms"] = median(missMS)
	layers["hgpartd.refused_ratio"] = float64(refused) / float64(len(run.open))
	layers["hgpartd.tier0_ratio"] = float64(tier0) / float64(max(oks, 1))
	layers["hgpartd.wal_bytes_per_req"] = float64(run.walBytes) / float64(len(all))
	layers["hgpartd.overhead_p50_ms"] = median(overheadMS)
	layers["loadgen.late_p99_ms"] = percentile(late, 99)

	// The per-request layers, in process, over the open loop's distinct
	// (netlist, query) pairs: what one cache miss costs the daemon.
	inproc, covered, err := traceMisses(cfg, run, half.seconds)
	if err != nil {
		out.correct = false
		out.note("traced run: %v", err)
	}
	for k, v := range inproc {
		layers[k] = v
	}
	e2e := median(missMS) / 1000
	out.note("%d open-loop replies (%d hits, %d misses); miss p50 %.4gms client-side, in-process layers %.4gms",
		len(run.open), len(hitMS), len(missMS), e2e*1000, covered*1000)
	return finishTrace(cfg, out, layers, e2e, covered), nil
}

// traceMisses replays the open loop's cache misses in process — parse,
// the portfolio with the daemon's defaults, the oracle, the JSON reply,
// and the WAL's two fsynced appends — and reports per-request medians.
func traceMisses(cfg config, run *serveRun, budget time.Duration) (span, float64, error) {
	j, err := checkpoint.Create(filepath.Join(cfg.work, "trace.wal"), []byte(`{"version":1,"purpose":"hgbench"}`))
	if err != nil {
		return nil, 0, err
	}
	defer j.Close()
	daemonCut := map[int]int{}
	var pairs []request
	for _, r := range run.open {
		if _, seen := daemonCut[r.req.pair]; !seen && r.ok() {
			daemonCut[r.req.pair] = r.cut
			pairs = append(pairs, r.req)
		}
	}
	samples := map[string][]float64{}
	var covered []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < len(pairs) && (i == 0 || time.Now().Before(deadline)); i++ {
		req := pairs[i]
		b := run.bodies[req.body]
		s := span{}
		var h *fasthgp.Hypergraph
		var fixed []int8
		s.timed("netio.parse_s", func() { h, fixed, err = fasthgp.ReadNetlistFixed(bytes.NewReader(b.raw)) })
		if err != nil {
			return nil, 0, err
		}
		opts := []fasthgp.PortfolioOption{fasthgp.WithStarts(serveStarts), fasthgp.WithSeed(int64(req.seed)), fasthgp.WithBudget(30 * time.Second)}
		if c := (fasthgp.Constraint{FixedSide: fixed}); !c.IsZero() {
			opts = append(opts, fasthgp.WithConstraint(c))
		}
		var res *fasthgp.PortfolioResult
		s.timed("_portfolio", func() { res, err = fasthgp.PartitionPortfolio(context.Background(), h, opts...) })
		if err != nil {
			return nil, 0, err
		}
		if err := mismatch(fmt.Sprintf("cut of %s seed %d", b.name, req.seed), int64(res.CutSize), int64(daemonCut[req.pair])); err != nil {
			return nil, 0, err
		}
		s.timed("verify.check_s", func() { _, err = fasthgp.VerifyCut(h, res.Partition, res.CutSize) })
		if err != nil {
			return nil, 0, err
		}
		s.timed("netio.write_s", func() { _, err = json.Marshal(replyBody(h, res)) })
		if err != nil {
			return nil, 0, err
		}
		rec, _ := json.Marshal(map[string]string{"type": "accepted", "query": req.query(), "netlist": string(b.raw)}) // strings only: cannot fail
		s.timed("checkpoint.append_s", func() { err = j.Append(rec) })
		if err != nil {
			return nil, 0, err
		}
		for k, v := range s {
			samples[k] = append(samples[k], v)
		}
		covered = append(covered, s["netio.parse_s"]+s["_portfolio"]+2*s["checkpoint.append_s"]+s["netio.write_s"])
	}
	med := span{}
	for k, xs := range samples {
		med[k] = median(xs)
	}
	med["portfolio.run_p50_ms"] = med["_portfolio"] * 1000
	return med, median(covered), nil
}

// replyBody is the daemon's 200 body for res.
func replyBody(h *fasthgp.Hypergraph, res *fasthgp.PortfolioResult) any {
	assignment := make([]int, h.NumVertices())
	for v := range assignment {
		if res.Partition.Side(v) == fasthgp.Right {
			assignment[v] = 1
		}
	}
	return map[string]any{"job_id": "", "modules": h.NumVertices(), "nets": h.NumEdges(), "cut": res.CutSize,
		"tier": res.Tier, "tier_name": res.TierName, "degraded": res.Degraded, "assignment": assignment, "wall_ms": 0}
}
