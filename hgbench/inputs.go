package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fasthgp"
	"fasthgp/internal/gen"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/netio"
)

// Input sizes. vcycle-powerlaw has the power-law shape of the
// vcycle-powerlaw-smoke perf family at half its size, so that a run
// times every input at least three times. Each workload draws several
// instances of its shape from the workload seed, so that a run's
// figures average over instances instead of riding on one draw.
const (
	vcycleDraws   = 4
	table2Draws   = 16
	serveDraws    = 4
	vcycleModules = 2000
	vcycleNets    = 3000
)

// instance is one generated input file together with the benchmark's
// own parse of it, which the oracle checks answers against.
type instance struct {
	name   string
	path   string // input file handed to the program
	h      *fasthgp.Hypergraph
	draw   int // which of the workload's draws the input belongs to
	byName map[string]int
}

// newInstance writes h to dir in the given format and parses it back
// the way the program will receive it.
func newInstance(dir, name, format string, h *hypergraph.Hypergraph) (*instance, error) {
	var buf bytes.Buffer
	var err error
	if format == "hgr" {
		err = netio.WriteHMetis(&buf, h)
	} else {
		err = netio.Write(&buf, h)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+"."+format)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	in := &instance{name: name, path: path}
	if format == "hgr" {
		in.h, err = fasthgp.ReadHMetis(bytes.NewReader(buf.Bytes()))
	} else {
		in.h, err = fasthgp.ReadNetlist(bytes.NewReader(buf.Bytes()))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	in.byName = make(map[string]int, in.h.NumVertices())
	for v := 0; v < in.h.NumVertices(); v++ {
		in.byName[in.h.VertexName(v)] = v
	}
	return in, nil
}

// draws returns the generator seeds of a job's n draws.
func draws(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// vcycleInputs are the power-law hMETIS files of vcycle-powerlaw.
func vcycleInputs(dir string, seed int64) ([]*instance, error) {
	var out []*instance
	for i, s := range draws(seed, vcycleDraws) {
		h, err := gen.PowerLaw(vcycleModules, gen.PowerLawConfig{NumEdges: vcycleNets}, rand.New(rand.NewSource(s)))
		if err != nil {
			return nil, err
		}
		in, err := newInstance(dir, fmt.Sprintf("powerlaw-%d", i), "hgr", h)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// table2Inputs are the eight Table-2 stand-ins of algo1-table2, drawn
// table2Draws times.
func table2Inputs(dir string, seed int64) ([]*instance, error) {
	var out []*instance
	for i, s := range draws(seed, table2Draws) {
		for _, name := range gen.Table2Names() {
			h, err := gen.Table2Instance(name, s)
			if err != nil {
				return nil, err
			}
			in, err := newInstance(dir, fmt.Sprintf("%s-%d", name, i), "nets", h)
			if err != nil {
				return nil, err
			}
			in.draw = i
			out = append(out, in)
		}
	}
	return out, nil
}

// body is one netlist of the serve-mixed request mix.
type body struct {
	name  string
	raw   []byte
	h     *fasthgp.Hypergraph
	fixed []int8 // inline fixed directives, nil when none
}

// serveBodies is the serve-mixed mix: the golden corpus plus Bd1–Bd3
// and Diff1, each drawn serveDraws times from seed.
func serveBodies(root string, seed int64) ([]body, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "corpus", "*.nets"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden corpus under %s", filepath.Join(root, "testdata", "corpus"))
	}
	sort.Strings(paths)
	var out []body
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, body{name: strings.TrimSuffix(filepath.Base(p), ".nets"), raw: raw})
	}
	for i, s := range draws(seed, serveDraws) {
		for _, name := range []gen.Table2Name{gen.Bd1, gen.Bd2, gen.Bd3, gen.Diff1} {
			h, err := gen.Table2Instance(name, s)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := netio.Write(&buf, h); err != nil {
				return nil, err
			}
			out = append(out, body{name: fmt.Sprintf("%s-%d", name, i), raw: buf.Bytes()})
		}
	}
	for i := range out {
		h, fixed, err := fasthgp.ReadNetlistFixed(bytes.NewReader(out[i].raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", out[i].name, err)
		}
		out[i].h, out[i].fixed = h, fixed
	}
	return out, nil
}
