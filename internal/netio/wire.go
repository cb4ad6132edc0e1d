package netio

import (
	"fmt"
	"io"

	"fasthgp/internal/hypergraph"
)

// ReadWire parses a netlist body in the daemons' wire format: "nets"
// (or "") is the text format with its inline fixed-vertex directives,
// "hgr" is hMETIS read as a stream, whose fixed slice is always nil.
// hgpartd and hgpartcoord both parse requests here, so the worker and
// the coordinator agree on the fingerprint and on the constraint.
func ReadWire(format string, r io.Reader) (*hypergraph.Hypergraph, []int8, error) {
	switch format {
	case "", "nets":
		return ReadFixed(r)
	case "hgr":
		h, err := ParseHMetisStream(r)
		return h, nil, err
	default:
		return nil, nil, fmt.Errorf("unknown format %q", format)
	}
}
