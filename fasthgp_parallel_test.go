package fasthgp

// Determinism contract of the multi-start engine, asserted through the
// public facade: for every algorithm, the Result at Parallelism 1 and
// Parallelism 8 must be identical — same cut, same side for every
// vertex, same winning start — at several seeds. Plus the cancellation
// contract: an expired context yields the best-so-far result, not an
// error, and leaves no goroutines behind.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fasthgp/internal/gen"
)

// parallelTestSeeds are the seeds every algorithm is checked at.
var parallelTestSeeds = []int64{1, 7, 42}

// testNetlist builds a deterministic ~300-module profile instance.
func testNetlist(t *testing.T, seed int64) *Hypergraph {
	t.Helper()
	h, err := gen.Profile(gen.ProfileConfig{Modules: 300, Signals: 600, Technology: gen.StdCell},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// algoOutcome is the comparable projection of one run.
type algoOutcome struct {
	cut       int
	sides     string
	bestStart int
	startsRun int
}

func outcomeOf(h *Hypergraph, p *Bipartition, cut int, es EngineStats) algoOutcome {
	sides := make([]byte, h.NumVertices())
	for v := range sides {
		switch p.Side(v) {
		case Left:
			sides[v] = 'L'
		case Right:
			sides[v] = 'R'
		default:
			sides[v] = '?'
		}
	}
	return algoOutcome{cut: cut, sides: string(sides), bestStart: es.BestStart, startsRun: es.StartsRun}
}

// runners enumerates every engine-backed bipartitioner through the
// uniform registry interface.
func runners(t *testing.T) []Algorithm {
	t.Helper()
	algos := Algorithms()
	if len(algos) < 8 {
		t.Fatalf("Algorithms() = %d entries, want >= 8", len(algos))
	}
	return algos
}

func TestParallelismDoesNotChangeResult(t *testing.T) {
	for _, a := range runners(t) {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, seed := range parallelTestSeeds {
				h := testNetlist(t, seed)
				starts := 6
				if a.Name == "flow" {
					starts = 3 // max-flow pairs are the priciest start
				}
				var serial algoOutcome
				for i, par := range []int{1, 8} {
					res, err := a.Run(context.Background(), h, AlgoConfig{Starts: starts, Seed: seed, Parallelism: par})
					if err != nil {
						t.Fatalf("seed %d parallelism %d: %v", seed, par, err)
					}
					got := outcomeOf(h, res.Partition, res.CutSize, res.Engine)
					if got.startsRun != starts {
						t.Fatalf("seed %d parallelism %d: ran %d starts, want %d", seed, par, got.startsRun, starts)
					}
					if i == 0 {
						serial = got
						continue
					}
					if got != serial {
						t.Errorf("seed %d: parallel result differs from serial:\n  serial   cut %d best %d\n  parallel cut %d best %d\n  sides equal: %v",
							seed, serial.cut, serial.bestStart, got.cut, got.bestStart, got.sides == serial.sides)
					}
				}
				if a.Name == "algo1" {
					// The registry result has no Algorithm I stats; the
					// memo's distinct-path count must not depend on the
					// worker count either.
					var distinct [2]int
					for i, par := range []int{1, 8} {
						res, err := PartitionCtx(context.Background(), h, Options{Starts: starts, Seed: seed, Parallelism: par})
						if err != nil {
							t.Fatalf("seed %d parallelism %d: %v", seed, par, err)
						}
						distinct[i] = res.Stats.DistinctPaths
					}
					if distinct[0] != distinct[1] {
						t.Errorf("seed %d: %d distinct paths serial, %d parallel", seed, distinct[0], distinct[1])
					}
				}
			}
		})
	}
}

func TestKWayParallelismDoesNotChangeResult(t *testing.T) {
	// KWay is recursive rather than engine-fanned, but its Parallelism
	// knob must still never change the labeling.
	for _, seed := range parallelTestSeeds {
		h := testNetlist(t, seed)
		var serial []int
		for _, par := range []int{1, 8} {
			res, err := KWay(h, KWayOptions{K: 4, Seed: seed, Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d parallelism %d: %v", seed, par, err)
			}
			if serial == nil {
				serial = res.Part
				continue
			}
			for v := range serial {
				if res.Part[v] != serial[v] {
					t.Fatalf("seed %d: part[%d] = %d at parallelism 8, %d at 1", seed, v, res.Part[v], serial[v])
				}
			}
		}
	}
}

func TestCancellationReturnsBestSoFar(t *testing.T) {
	h := testNetlist(t, 1)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the run even begins

	for _, a := range runners(t) {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res, err := a.Run(ctx, h, AlgoConfig{Starts: 8, Seed: 1, Parallelism: 4})
			if err != nil {
				t.Fatalf("cancelled run must return best-so-far, got error: %v", err)
			}
			if res.Partition == nil {
				t.Fatal("cancelled run returned no partition")
			}
			if got := CutSize(h, res.Partition); got != res.CutSize {
				t.Errorf("reported cut %d, actual %d", res.CutSize, got)
			}
			if res.Engine.StartsRun < 1 {
				t.Errorf("StartsRun = %d, want >= 1 (start 0 always runs)", res.Engine.StartsRun)
			}
			if res.Engine.StartsRun >= res.Engine.StartsRequested {
				t.Errorf("StartsRun = %d of %d: pre-cancelled run should stop early", res.Engine.StartsRun, res.Engine.StartsRequested)
			}
			if !res.Engine.Cancelled {
				t.Error("Engine.Cancelled = false on a cancelled run")
			}
		})
	}

	// All engine workers must have exited: poll briefly, since worker
	// teardown is asynchronous with Run returning.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTimeoutMidRunKeepsBest(t *testing.T) {
	// A deadline that expires mid-run: the engine must return the best
	// of whatever completed, deterministically over that subset.
	h := testNetlist(t, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := AnnealCtx(ctx, h, AnnealOptions{Starts: 50, Seed: 7, Parallelism: 2})
	if err != nil {
		t.Fatalf("timed-out run must return best-so-far, got: %v", err)
	}
	if res.Partition == nil || res.CutSize != CutSize(h, res.Partition) {
		t.Fatal("timed-out run returned an inconsistent result")
	}
	if res.Engine.StartsRun < 1 {
		t.Errorf("StartsRun = %d, want >= 1", res.Engine.StartsRun)
	}
}
