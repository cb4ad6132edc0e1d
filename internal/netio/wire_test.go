package netio

import (
	"strings"
	"testing"
)

func TestReadWire(t *testing.T) {
	h, fixed, err := ReadWire("", strings.NewReader("net n1 a b\nnet n2 b c\nfixed a L\n"))
	if err != nil || h.NumVertices() != 3 || len(fixed) != 3 || fixed[0] != 0 {
		t.Fatalf("nets: h=%v fixed=%v err=%v, want 3 modules with a pinned left", h, fixed, err)
	}
	h, fixed, err = ReadWire("hgr", strings.NewReader("2 3\n1 2\n2 3\n"))
	if err != nil || h.NumVertices() != 3 || h.NumEdges() != 2 || fixed != nil {
		t.Fatalf("hgr: h=%v fixed=%v err=%v, want 3 modules, 2 nets, no fixed", h, fixed, err)
	}
	if _, _, err := ReadWire("xml", strings.NewReader("")); err == nil || !strings.Contains(err.Error(), `unknown format "xml"`) {
		t.Fatalf("xml: err=%v, want unknown format", err)
	}
}
