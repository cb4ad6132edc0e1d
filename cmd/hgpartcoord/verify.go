package main

// Answer verification: the coordinator's trust boundary. A worker
// answer is never delivered to a client, cached in the handoff queue's
// completion memory, or journaled as done until the verification oracle
// has recomputed its claimed cut from scratch (O(pins), from the raw
// netlist bytes the coordinator already holds) and re-checked the
// balance/fixed constraint the request asked for. A worker that fails
// the check is charged an integrity strike (see internal/fleet
// quarantine.go) and the job fails over to the next ring candidate —
// a Byzantine worker can waste our time, never corrupt an answer.
//
// The constraint is reconstructed coordinator-side exactly the way
// hgpartd builds it (inline netlist directives, overridden by the fixed
// query parameter, plus epsilon), through the same wire-format parse
// (netio.ReadWire) and the same fasthgp.ParseFixedSpec parser, so the
// verified contract is the solved contract. Degraded portfolio answers also satisfy the constraint —
// every tier's candidate is certified before the daemon returns it —
// so verification applies unconditionally.

import (
	"bytes"
	"fmt"
	"net/url"
	"strconv"

	"fasthgp"
	"fasthgp/internal/fleet"
	"fasthgp/internal/netio"
)

// verifySpec is everything needed to judge a worker's answer to one
// request: the parsed hypergraph and the reconstructed constraint.
type verifySpec struct {
	h          *fasthgp.Hypergraph
	constraint fasthgp.Constraint
}

// newVerifySpec parses the request into its verification contract. A
// parse or constraint error means the request itself is bad (the
// caller answers 400), not that a worker misbehaved.
func newVerifySpec(format string, raw []byte, q url.Values) (*verifySpec, error) {
	h, inlineFixed, err := netio.ReadWire(format, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	constraint := fasthgp.Constraint{FixedSide: inlineFixed}
	if v := q.Get("epsilon"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || eps < 0 {
			return nil, fmt.Errorf("bad epsilon %q", v)
		}
		constraint.Epsilon = eps
	}
	if v := q.Get("fixed"); v != "" {
		fixed, err := fasthgp.ParseFixedSpec(v, h.NumVertices())
		if err != nil {
			return nil, err
		}
		constraint.FixedSide = fixed
	}
	if err := constraint.Validate(h.NumVertices(), 2); err != nil {
		return nil, err
	}
	return &verifySpec{h: h, constraint: constraint}, nil
}

// verifySpecForJob rebuilds the contract for a WAL-recovered or
// reclaimed job from its stored raw request.
func verifySpecForJob(job fleet.Job) (*verifySpec, error) {
	q, err := url.ParseQuery(job.Query)
	if err != nil {
		return nil, err
	}
	return newVerifySpec(job.Format, []byte(job.Netlist), q)
}

// verify judges one worker answer against the contract: the assignment
// must cover every module with a valid side, the oracle must recompute
// exactly the claimed cut, and the answer must satisfy the constraint.
func (vs *verifySpec) verify(resp workerResponse) error {
	n := vs.h.NumVertices()
	if len(resp.Assignment) != n {
		return fmt.Errorf("assignment has %d entries, netlist has %d modules", len(resp.Assignment), n)
	}
	p := fasthgp.NewBipartition(n)
	for v, side := range resp.Assignment {
		switch side {
		case 0:
			p.Assign(v, fasthgp.Left)
		case 1:
			p.Assign(v, fasthgp.Right)
		default:
			return fmt.Errorf("assignment[%d] = %d, want 0 or 1", v, side)
		}
	}
	if _, err := fasthgp.VerifyCut(vs.h, p, resp.Cut); err != nil {
		return fmt.Errorf("oracle rejected the cut: %w", err)
	}
	if !vs.constraint.IsZero() {
		if _, err := fasthgp.VerifyConstraint(vs.h, p, vs.constraint); err != nil {
			return fmt.Errorf("oracle rejected the constraint: %w", err)
		}
	}
	return nil
}
