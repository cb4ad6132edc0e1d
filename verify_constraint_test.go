package fasthgp

// Constrained differential suite: every registry algorithm runs under
// the unified balance contract — ε-imbalance bounds, fixed vertices,
// and both together — and is checked against two referees: the
// constraint-aware invariant oracle (verify.CheckConstraint: valid
// partition, every pinned vertex on its pinned side, both sides within
// the ε bound) and the constrained bruteforce enumerator (no heuristic
// may beat the true constrained optimum).

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fasthgp/internal/bruteforce"
	"fasthgp/internal/gen"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

// constraintScenarios builds the contract variants exercised per
// instance: ε only, fixed only, and both. Fixed pins vertex 0 Left and
// vertex n−1 Right — compatible with every instance family (and with
// the planted optimum, which splits [0, n/2) from [n/2, n)).
func constraintScenarios(n int) []struct {
	Name string
	C    Constraint
} {
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = FreeVertex
	}
	fixed[0] = 0
	fixed[n-1] = 1
	return []struct {
		Name string
		C    Constraint
	}{
		{"eps-0.2", Constraint{Epsilon: 0.2}},
		{"fixed-ends", Constraint{FixedSide: fixed}},
		{"eps-0.3+fixed", Constraint{Epsilon: 0.3, FixedSide: fixed}},
	}
}

// runAndCheckConstrained executes one registry algorithm under c and
// pushes the result through the constraint oracle.
func runAndCheckConstrained(t *testing.T, a Algorithm, h *Hypergraph, cfg AlgoConfig) int {
	t.Helper()
	res, err := a.Run(context.Background(), h, cfg)
	if err != nil {
		t.Fatalf("%s failed: %v", a.Name, err)
	}
	if _, err := verify.CheckCut(h, res.Partition, res.CutSize); err != nil {
		t.Fatalf("%s produced an invalid result: %v", a.Name, err)
	}
	if _, err := verify.CheckConstraint(h, res.Partition, cfg.Constraint); err != nil {
		t.Fatalf("%s violated the constraint: %v", a.Name, err)
	}
	return res.CutSize
}

// TestDifferentialConstrained runs the whole registry over small
// instances under every constraint scenario: results must satisfy the
// contract exactly and never beat the constrained bruteforce optimum.
func TestDifferentialConstrained(t *testing.T) {
	algos := Algorithms()
	for _, inst := range verify.SmallInstances() {
		n := inst.H.NumVertices()
		if n < 4 || n > 14 {
			continue // keep the 2^n enumeration cheap
		}
		for _, sc := range constraintScenarios(n) {
			_, optimum, err := bruteforce.MinCutConstrained(inst.H, sc.C)
			if err != nil {
				t.Fatalf("%s/%s: bruteforce: %v", inst.Name, sc.Name, err)
			}
			for _, a := range algos {
				cfg := diffConfig
				cfg.Constraint = sc.C
				cut := runAndCheckConstrained(t, a, inst.H, cfg)
				if cut < optimum {
					t.Errorf("%s on %s/%s: cut %d below the constrained optimum %d",
						a.Name, inst.Name, sc.Name, cut, optimum)
				}
			}
		}
	}
}

// TestDifferentialConstrainedPlanted extends the planted family with
// fixed vertices pinned to opposite planted halves: the constrained
// optimum (certified by bruteforce) still equals the planted cut, and
// every algorithm must stay valid, pinned, and at-or-above it.
func TestDifferentialConstrainedPlanted(t *testing.T) {
	algos := Algorithms()
	for _, inst := range verify.PlantedInstances() {
		n := inst.H.NumVertices()
		if n > 14 {
			continue // full 2^n enumeration (no symmetry halving with pins)
		}
		fixed := make([]int8, n)
		for i := range fixed {
			fixed[i] = FreeVertex
		}
		fixed[0] = 0
		fixed[n-1] = 1
		c := Constraint{Epsilon: 0.25, FixedSide: fixed}
		_, optimum, err := bruteforce.MinCutConstrained(inst.H, c)
		if err != nil {
			t.Fatalf("%s: bruteforce: %v", inst.Name, err)
		}
		if optimum != inst.Cut {
			t.Fatalf("%s: constrained optimum %d differs from planted cut %d — pins chosen badly",
				inst.Name, optimum, inst.Cut)
		}
		for _, a := range algos {
			cfg := diffConfig
			cfg.Constraint = c
			cut := runAndCheckConstrained(t, a, inst.H, cfg)
			if cut < optimum {
				t.Errorf("%s on %s: cut %d below the certified constrained optimum %d",
					a.Name, inst.Name, cut, optimum)
			}
		}
	}
}

// TestConstrainedFixedNeverMoved replays every algorithm across several
// seeds on one instance and asserts the pinned vertices sit on their
// pinned sides in every single result — not just the winning seed.
func TestConstrainedFixedNeverMoved(t *testing.T) {
	insts := verify.SmallInstances()
	var h *Hypergraph
	for _, inst := range insts {
		if inst.Name == "bridged-12" {
			h = inst.H
		}
	}
	if h == nil {
		t.Fatal("bridged-12 instance missing")
	}
	n := h.NumVertices()
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = FreeVertex
	}
	// Pin adversarially: one vertex of each clique to the OTHER side,
	// so every algorithm is tempted to move them back.
	fixed[1] = 1
	fixed[n-2] = 0
	c := Constraint{Epsilon: 0.2, FixedSide: fixed}
	for _, a := range Algorithms() {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := a.Run(context.Background(), h, AlgoConfig{Starts: 3, Seed: seed, Parallelism: 2, Constraint: c})
			if err != nil {
				t.Fatalf("%s seed %d: %v", a.Name, seed, err)
			}
			if res.Partition.Side(1) != Right || res.Partition.Side(n-2) != Left {
				t.Errorf("%s seed %d moved a fixed vertex: v1=%v v%d=%v",
					a.Name, seed, res.Partition.Side(1), n-2, res.Partition.Side(n-2))
			}
			if _, err := verify.CheckConstraint(h, res.Partition, c); err != nil {
				t.Errorf("%s seed %d: %v", a.Name, seed, err)
			}
		}
	}
}

// TestConstrainedParallelismInvariance is the determinism contract on
// constrained runs: the worker count — and nothing else — changes, and
// the result must be bit-for-bit identical.
func TestConstrainedParallelismInvariance(t *testing.T) {
	algos := Algorithms()
	insts := verify.SmallInstances()
	for _, inst := range insts[:6] {
		n := inst.H.NumVertices()
		if n < 4 {
			continue
		}
		for _, sc := range constraintScenarios(n) {
			for _, a := range algos {
				cfg := AlgoConfig{Starts: 5, Seed: 9, Parallelism: 1, Constraint: sc.C}
				serial, err := a.Run(context.Background(), inst.H, cfg)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", a.Name, inst.Name, sc.Name, err)
				}
				cfg.Parallelism = 8
				wide, err := a.Run(context.Background(), inst.H, cfg)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", a.Name, inst.Name, sc.Name, err)
				}
				if serial.CutSize != wide.CutSize || serial.Engine.BestStart != wide.Engine.BestStart {
					t.Errorf("%s on %s/%s: parallelism changed the result: cut %d@%d vs %d@%d",
						a.Name, inst.Name, sc.Name, serial.CutSize, serial.Engine.BestStart,
						wide.CutSize, wide.Engine.BestStart)
				}
				for v := 0; v < n; v++ {
					if serial.Partition.Side(v) != wide.Partition.Side(v) {
						t.Errorf("%s on %s/%s: vertex %d side differs across parallelism",
							a.Name, inst.Name, sc.Name, v)
						break
					}
				}
			}
		}
	}
}

// TestMultilevelInfeasibleConstraintIsAnError: 300 of 400 unit modules
// pinned Left cannot fit a side capped at 206 by ε = 0.03. The V-cycle
// must refuse the contract as Algorithm I does, not return a partition
// that violates it.
func TestMultilevelInfeasibleConstraintIsAnError(t *testing.T) {
	h, err := gen.PowerLaw(400, gen.PowerLawConfig{NumEdges: 600}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	fixed := make([]int8, h.NumVertices())
	for v := range fixed {
		fixed[v] = FreeVertex
		if v < 300 {
			fixed[v] = 0
		}
	}
	c := Constraint{Epsilon: 0.03, FixedSide: fixed}
	if _, err := PartitionCtx(context.Background(), h, Options{Starts: 2, Seed: 1, Constraint: c}); !errors.Is(err, ErrConstraintInfeasible) {
		t.Fatalf("PartitionCtx: err = %v, want ErrConstraintInfeasible", err)
	}
	res, err := MultilevelCtx(context.Background(), h, MultilevelOptions{Seed: 1, Constraint: c})
	if !errors.Is(err, ErrConstraintInfeasible) {
		if err == nil {
			l, r := partition.SideWeights(h, res.Partition)
			t.Fatalf("MultilevelCtx returned side weights %d|%d as success, want ErrConstraintInfeasible", l, r)
		}
		t.Fatalf("MultilevelCtx: err = %v, want ErrConstraintInfeasible", err)
	}
}
