// Package rebalance repairs the weight balance of a bipartition by
// greedily moving the cheapest vertices — those whose move hurts the
// cut least — from the heavy side until a target split is met. It is
// the glue that lets the unconstrained partitioners (notably
// Algorithm I, whose balance is only probabilistic) satisfy a hard
// r-bipartition constraint or the proportional targets of K-way
// recursive bisection, and the single enforcement point for the
// unified partition.Constraint contract (ε bound + fixed vertices).
package rebalance

import (
	"errors"
	"fmt"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// ErrNegativeTolerance reports a caller-supplied tolerance below zero.
// Historically ToTarget silently clamped these to 0; a negative
// tolerance is always a bug at the call site, so it is now rejected.
var ErrNegativeTolerance = errors.New("rebalance: negative tolerance")

// ErrInfeasible reports that no sequence of legal moves can satisfy the
// requested constraint — e.g. the fixed vertices of one side already
// outweigh the ε bound, or a giant module straddles every admissible
// split.
var ErrInfeasible = errors.New("rebalance: constraint infeasible")

// ToTarget moves vertices between the sides of p (in place) until the
// left-side weight lies within tolerance of targetLeft, always moving
// a vertex with the maximum cut gain (least cut damage) from the heavy
// side; vertex-count non-emptiness is preserved. It returns the number
// of vertices moved.
//
// The loop always terminates: each move strictly reduces the distance
// to the target or stops when no legal mover exists (e.g. a single
// giant module heavier than the tolerance straddles the target).
func ToTarget(h *hypergraph.Hypergraph, p *partition.Bipartition, targetLeft, tolerance int64) (int, error) {
	return ToTargetFixed(h, p, targetLeft, tolerance, nil)
}

// ToTargetFixed is ToTarget with a lock vector: vertices whose fixed
// entry is ≥ 0 are never moved. A nil or short fixed slice leaves the
// remaining vertices movable.
func ToTargetFixed(h *hypergraph.Hypergraph, p *partition.Bipartition, targetLeft, tolerance int64, fixed []int8) (int, error) {
	if err := p.Validate(h); err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	if tolerance < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeTolerance, tolerance)
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		return 0, fmt.Errorf("rebalance: %w", err)
	}
	moved := 0
	for {
		lw, _ := s.Weights()
		var from partition.Side
		var excess int64
		switch {
		case lw > targetLeft+tolerance:
			from, excess = partition.Left, lw-targetLeft
		case lw < targetLeft-tolerance:
			from, excess = partition.Right, targetLeft-lw
		default:
			return moved, nil
		}
		// Weight below 2×excess brings the balance strictly closer to
		// the target; anything heavier would overshoot past the starting
		// distance and oscillate.
		v := bestMover(h, s, from, 2*excess-1, fixed)
		if v == -1 {
			return moved, nil // no legal move can improve the balance
		}
		s.Move(v)
		moved++
	}
}

// Bisect moves vertices until the weight split is as close to even as
// the tolerance allows.
func Bisect(h *hypergraph.Hypergraph, p *partition.Bipartition, tolerance int64) (int, error) {
	return ToTarget(h, p, h.TotalVertexWeight()/2, tolerance)
}

// Feasible runs the checks Enforce makes before it touches a partition:
// c must be a valid two-way constraint for h, and satisfiable at all.
// An unsatisfiable c yields ErrInfeasible, wrapped with the reason.
// Callers that build a partition before enforcing c run it first, so
// they refuse the contract up front instead of after the work.
func Feasible(h *hypergraph.Hypergraph, c partition.Constraint) error {
	if err := c.Validate(h.NumVertices(), 2); err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	if err := c.Infeasible(h); err != nil {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return nil
}

// Enforce makes p satisfy the constraint c in place: fixed vertices are
// forced onto their pinned sides, then the greedy repair moves free
// vertices off any side exceeding c's max side weight. It returns
// ErrInfeasible (wrapped with the reason) when the constraint is
// provably unsatisfiable or the repair stalls with a side still
// overweight. A zero constraint validates p and returns nil.
//
// Enforce may leave a side empty of vertices only when the fixed
// assignment itself demands it; otherwise it pulls a free vertex across
// to keep both sides populated, matching the library-wide invariant
// that a bipartition has two nonempty sides.
func Enforce(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint) error {
	if err := Feasible(h, c); err != nil {
		return err
	}
	if len(p.Sides()) != h.NumVertices() {
		return fmt.Errorf("rebalance: partition covers %d vertices, hypergraph has %d", p.Len(), h.NumVertices())
	}
	if c.IsZero() {
		if err := p.Validate(h); err != nil {
			return fmt.Errorf("rebalance: %w", err)
		}
		return nil
	}
	c.ApplyFixed(p)
	if err := repairEmptySide(h, p, c); err != nil {
		return err
	}
	if !c.HasBalance() {
		return nil
	}
	total := h.TotalVertexWeight()
	maxSide := c.MaxSideWeight(total, 2)
	s, err := cutstate.New(h, p)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	for {
		lw, rw := s.Weights()
		var from partition.Side
		switch {
		case lw > maxSide:
			from = partition.Left
		case rw > maxSide:
			from = partition.Right
		default:
			return nil
		}
		// A mover may weigh anything up to fromWeight − minSide: landing
		// anywhere inside the admissible band is fine, unlike ToTarget's
		// point target, but overshooting past the band would just push
		// the violation to the other side and oscillate.
		fromW := lw
		if from == partition.Right {
			fromW = rw
		}
		v := bestMover(h, s, from, fromW-(total-maxSide), c.FixedSide)
		if v == -1 {
			return fmt.Errorf("%w: side weight %d exceeds max %d and no free vertex can move", ErrInfeasible, fromW, maxSide)
		}
		s.Move(v)
	}
}

// bestMover selects the vertex on `from` with the highest cut gain
// among vertices of positive weight at most maxW, skipping vertices
// pinned by fixed and refusing to empty the side. Zero-weight moves
// make no balance progress; the cap keeps a move from overshooting.
// Ties break toward heavier vertices (fewer moves) then lower index.
// Returns -1 when nothing qualifies.
func bestMover(h *hypergraph.Hypergraph, s *cutstate.State, from partition.Side, maxW int64, fixed []int8) int {
	l, r, _ := s.Partition().Counts()
	if (from == partition.Left && l <= 1) || (from == partition.Right && r <= 1) {
		return -1
	}
	best := -1
	bestGain := 0
	var bestW int64
	for v := 0; v < h.NumVertices(); v++ {
		if s.Side(v) != from {
			continue
		}
		if v < len(fixed) && fixed[v] >= 0 {
			continue
		}
		w := h.VertexWeight(v)
		if w == 0 || w > maxW {
			continue
		}
		g := s.Gain(v)
		if best == -1 || g > bestGain ||
			(g == bestGain && (w > bestW || (w == bestW && v < best))) {
			best, bestGain, bestW = v, g, w
		}
	}
	return best
}

// repairEmptySide pulls a free vertex onto an empty side so the
// two-nonempty-sides invariant survives ApplyFixed. When every vertex
// is fixed to one side there is nothing to move and the constraint is
// infeasible under the library's bipartition definition.
func repairEmptySide(h *hypergraph.Hypergraph, p *partition.Bipartition, c partition.Constraint) error {
	l, r, u := p.Counts()
	if u > 0 {
		return fmt.Errorf("rebalance: %d vertices unassigned", u)
	}
	if l > 0 && r > 0 {
		return nil
	}
	empty, other := partition.Left, partition.Right
	if r == 0 {
		empty, other = partition.Right, partition.Left
	}
	// Lightest free vertex on the populated side crosses over.
	best := -1
	var bestW int64
	for v := 0; v < h.NumVertices(); v++ {
		if c.Fixed(v) >= 0 || p.Side(v) != other {
			continue
		}
		w := h.VertexWeight(v)
		if best == -1 || w < bestW || (w == bestW && v < best) {
			best, bestW = v, w
		}
	}
	if best == -1 {
		return fmt.Errorf("%w: every vertex is fixed to one side", ErrInfeasible)
	}
	p.Assign(best, empty)
	return nil
}
