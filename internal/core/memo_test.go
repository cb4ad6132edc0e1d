package core

// Differential test for the start memo: every run with the shared memo
// must equal the reference run in which each start gets a fresh memo
// and so computes its outcome alone — same per-start cuts, same
// winning start, same partition bytes, same diagnostics — at every
// Parallelism and KernelWorkers, for every completion rule, with and
// without a constraint.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fasthgp/internal/engine"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/intersect"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
)

// memoInstance is one netlist of the differential test with the
// constraint it also runs under.
type memoInstance struct {
	name string
	h    *hypergraph.Hypergraph
	c    partition.Constraint
}

// memoInstances returns the golden corpus, two Table-2 stand-ins and
// one power-law netlist. Corpus rows carrying fixed directives keep
// them; every other instance pins its first vertex Left and its last
// Right. Either way the constraint adds an ε bound.
func memoInstances(t *testing.T) []memoInstance {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.nets"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus netlists found: %v", err)
	}
	var insts []memoInstance
	add := func(name string, h *hypergraph.Hypergraph, fixed []int8) {
		if fixed == nil {
			fixed = make([]int8, h.NumVertices())
			for v := range fixed {
				fixed[v] = partition.FreeVertex
			}
			fixed[0], fixed[len(fixed)-1] = 0, 1
		}
		insts = append(insts, memoInstance{name, h, partition.Constraint{Epsilon: 0.25, FixedSide: fixed}})
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		h, fixed, err := netio.ReadFixed(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		add(filepath.Base(p), h, fixed)
	}
	for _, name := range []gen.Table2Name{gen.Bd1, gen.Diff1} {
		h, err := gen.Table2Instance(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		add(string(name), h, nil)
	}
	h, err := gen.PowerLaw(300, gen.PowerLawConfig{NumEdges: 450}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	add("powerlaw-300", h, nil)
	return insts
}

// sameRun reports how got differs from want, or "" when they match in
// everything but wall and CPU time.
func sameRun(want, got *Result) string {
	switch {
	case !slices.Equal(want.Stats.Engine.Cuts, got.Stats.Engine.Cuts):
		return fmt.Sprintf("per-start cuts %v, want %v", got.Stats.Engine.Cuts, want.Stats.Engine.Cuts)
	case want.Stats.Engine.BestStart != got.Stats.Engine.BestStart:
		return fmt.Sprintf("best start %d, want %d", got.Stats.Engine.BestStart, want.Stats.Engine.BestStart)
	case !slices.Equal(want.Partition.Sides(), got.Partition.Sides()):
		return "best partition differs"
	case want.CutSize != got.CutSize:
		return fmt.Sprintf("cut %d, want %d", got.CutSize, want.CutSize)
	case !slices.Equal(want.Losers, got.Losers) || !slices.Equal(want.Boundary, got.Boundary):
		return "losers or boundary differ"
	}
	ws, gs := want.Stats, got.Stats
	ws.Engine, gs.Engine = engine.Stats{}, engine.Stats{}
	if !reflect.DeepEqual(ws, gs) {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	return ""
}

func TestMemoMatchesFreshStarts(t *testing.T) {
	ctx := context.Background()
	completions := []Completion{CompletionGreedy, CompletionExact, CompletionWeighted}
	for _, inst := range memoInstances(t) {
		for _, c := range []partition.Constraint{{}, inst.c} {
			for _, comp := range completions {
				for _, seed := range []int64{1, 7, 42} {
					opts := Options{Starts: 20, Seed: seed, Completion: comp, Constraint: c, Parallelism: 1}
					want, err := bipartition(ctx, inst.h, opts, false)
					if err != nil {
						t.Fatalf("%s %v seed %d fixed %v: %v", inst.name, comp, seed, c.HasFixed(), err)
					}
					for _, par := range []int{1, 4} {
						for _, kw := range []int{1, 4} {
							opts.Parallelism, opts.KernelWorkers = par, kw
							got, err := BipartitionCtx(ctx, inst.h, opts)
							if err != nil {
								t.Fatalf("%s %v seed %d fixed %v: %v", inst.name, comp, seed, c.HasFixed(), err)
							}
							if diff := sameRun(want, got); diff != "" {
								t.Errorf("%s %v seed %d fixed %v parallelism %d workers %d: %s",
									inst.name, comp, seed, c.HasFixed(), par, kw, diff)
							}
						}
					}
				}
			}
		}
	}
}

// memSink journals checkpoint records in memory.
type memSink struct{ recs []memRec }

type memRec struct {
	start, cut int
	best       []byte
}

func (m *memSink) StartDone(start, cut int, best []byte) error {
	m.recs = append(m.recs, memRec{start, cut, slices.Clone(best)})
	return nil
}

// state folds the first n records into a resume point, as the journal
// replay does after a kill.
func (m *memSink) state(starts, n int) *engine.RunState {
	s := &engine.RunState{Completed: make([]bool, starts), Cuts: make([]int, starts), BestStart: -1}
	for i := range s.Cuts {
		s.Cuts[i] = engine.NotRun
	}
	for _, r := range m.recs[:n] {
		s.Completed[r.start] = true
		s.Cuts[r.start] = r.cut
		if len(r.best) > 0 {
			s.BestStart, s.BestCut, s.BestPayload = r.start, r.cut, r.best
		}
	}
	return s
}

// TestMemoResumeBypassesMemo kills a run after 15 of 40 starts and
// resumes it: the resumed starts never draw a path or enter the memo,
// yet the result equals the uninterrupted run's, with or without the
// shared memo, and DistinctPaths counts only the starts re-executed.
func TestMemoResumeBypassesMemo(t *testing.T) {
	ctx := context.Background()
	h, err := gen.Table2Instance(gen.Bd1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const starts, killed = 40, 15
	opts := Options{Starts: starts, Seed: 7, Parallelism: 1}
	full, err := BipartitionCtx(ctx, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	opts.Checkpoint = &engine.CheckpointIO{Sink: sink}
	if _, err := BipartitionCtx(ctx, h, opts); err != nil {
		t.Fatal(err)
	}

	ig := intersect.Build(h, intersect.Options{})
	pairs := map[[2]int]bool{}
	for i := killed; i < starts; i++ {
		u, v, _ := seedPath(h, ig, engine.StartRNG(opts.Seed, i), partition.Constraint{}, newStartMemo())
		pairs[[2]int{u, v}] = true
	}

	for _, share := range []bool{true, false} {
		opts.Checkpoint = &engine.CheckpointIO{Sink: &memSink{}, State: sink.state(starts, killed)}
		res, err := bipartition(ctx, h, opts, share)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Engine.StartsResumed != killed {
			t.Fatalf("shared %v: resumed %d starts, want %d", share, res.Stats.Engine.StartsResumed, killed)
		}
		if !slices.Equal(res.Stats.Engine.Cuts, full.Stats.Engine.Cuts) ||
			res.Stats.Engine.BestStart != full.Stats.Engine.BestStart ||
			!slices.Equal(res.Partition.Sides(), full.Partition.Sides()) || res.CutSize != full.CutSize {
			t.Errorf("shared %v: resumed run differs from the uninterrupted run", share)
		}
		if res.Stats.DistinctPaths != len(pairs) {
			t.Errorf("shared %v: DistinctPaths = %d, want %d (starts %d..%d only)",
				share, res.Stats.DistinctPaths, len(pairs), killed, starts-1)
		}
	}
}

// TestDistinctPathsPinned pins how many distinct longest paths the
// Table-2 stand-in Bd1 yields over 200 starts: far fewer than 200,
// which is what the memo saves.
func TestDistinctPathsPinned(t *testing.T) {
	h, err := gen.Table2Instance(gen.Bd1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		res, err := Bipartition(h, Options{Starts: 200, Seed: 1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StartsRun != 200 || res.Stats.DistinctPaths != 14 {
			t.Errorf("parallelism %d: %d distinct paths of %d starts, want 14 of 200",
				par, res.Stats.DistinctPaths, res.Stats.StartsRun)
		}
	}
}

// TestMemoHitSharesNothing: a hit is a deep copy, so a caller editing
// one start's partition or lists in place cannot reach another's.
func TestMemoHitSharesNothing(t *testing.T) {
	m := newStartMemo()
	p := partition.New(3)
	p.Assign(0, partition.Left)
	first, err := m.outcome(1, 2, func() (*Result, error) {
		return &Result{Partition: p, CutSize: 1, Losers: []int{4}, Boundary: []int{4, 5}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := m.outcome(1, 2, func() (*Result, error) {
		t.Fatal("a memo hit ran the start")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, hit) {
		t.Fatalf("hit %+v differs from the stored outcome %+v", hit, first)
	}
	hit.Partition.Assign(0, partition.Right)
	hit.Losers[0], hit.Boundary[0] = -1, -1
	if first.Partition.Side(0) != partition.Left || first.Losers[0] != 4 || first.Boundary[0] != 4 {
		t.Error("editing a hit changed the stored outcome")
	}
}
