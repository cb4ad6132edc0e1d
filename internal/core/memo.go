package core

import (
	"math/rand"
	"slices"
	"sync"

	"fasthgp/internal/graph"
)

// startMemo lets the starts of one Bipartition call share work. On a
// low-diameter dual most random starts reach the same longest path:
// the first sweep from a random vertex lands on a few far vertices, and
// the second sweep from each of those returns its lowest-numbered
// farthest vertex. Everything a start does after drawing its endpoint
// pair (u, v) — double BFS, boundary graph, completion, leftovers,
// repair — is a deterministic function of (u, v), so a start whose pair
// was already completed reuses that outcome instead of recomputing it.
// The memo is exact: every start still returns the result it would
// have computed alone.
//
// Workers may miss the same key concurrently; both compute it, the
// results are identical, and either may be kept.
type startMemo struct {
	mu       sync.Mutex
	sweeps   map[int]sweep
	outcomes map[[2]int]*Result
}

// sweep is the outcome of one eccentricity sweep: a farthest vertex and
// its distance.
type sweep struct{ far, depth int }

func newStartMemo() *startMemo {
	return &startMemo{sweeps: map[int]sweep{}, outcomes: map[[2]int]*Result{}}
}

// longestPath is graph.LongestBFSPath with the second sweep memoized by
// its source. The random draw and the first sweep still run per start,
// so each start's rng stream is consumed exactly as before.
func (m *startMemo) longestPath(g *graph.Graph, rng *rand.Rand) (u, v, depth int) {
	a, _ := g.Eccentricity(rng.Intn(g.NumVertices()))
	m.mu.Lock()
	s, ok := m.sweeps[a]
	m.mu.Unlock()
	if !ok {
		s.far, s.depth = g.Eccentricity(a)
		m.mu.Lock()
		m.sweeps[a] = s
		m.mu.Unlock()
	}
	return a, s.far, s.depth
}

// outcome returns the completed start for endpoints (u, v), calling run
// on a miss. A hit returns a deep copy, so no two starts share mutable
// state (callers such as the V-cycle refine the winner in place). Errors
// are not memoized.
func (m *startMemo) outcome(u, v int, run func() (*Result, error)) (*Result, error) {
	key := [2]int{u, v}
	m.mu.Lock()
	r, ok := m.outcomes[key]
	m.mu.Unlock()
	if ok {
		return r.clone(), nil
	}
	r, err := run()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.outcomes[key] = r
	m.mu.Unlock()
	return r, nil
}

// clone deep-copies a per-start result.
func (r *Result) clone() *Result {
	c := *r
	c.Partition = r.Partition.Clone()
	c.Losers = slices.Clone(r.Losers)
	c.Boundary = slices.Clone(r.Boundary)
	return &c
}
