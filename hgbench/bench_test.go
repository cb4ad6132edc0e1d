package main

import (
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"fasthgp"
	"fasthgp/internal/kway"
	"fasthgp/internal/partition"
	"fasthgp/internal/verify"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{1000, 99, 10}, {999, 95, 49}, {200, 95, 10}, {199, 90, 19}, {100, 90, 10},
		{99, 75, 24}, {40, 75, 10}, {39, 100, 0}, {1, 100, 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tail must sort
		}
		v, pct, beyond := tail(xs)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
		if want := float64(tc.n - beyond); v != want {
			t.Errorf("n=%d: tail value %g, want %g (rank n-beyond)", tc.n, v, want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

func TestSetupRepeatsForItsMinimumAndRunsBetween(t *testing.T) {
	var setups, betweens []int
	got, err := timeSetup(func(i int) error {
		setups = append(setups, i)
		time.Sleep(setupFor / 20)
		return nil
	}, func() error {
		betweens = append(betweens, len(setups))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(setups) < setupRepeats || time.Duration(len(setups))*setupFor/20 < setupFor {
		t.Errorf("%d set-ups of %s each, want at least %d and %s in all", len(setups), setupFor/20, setupRepeats, setupFor)
	}
	for i, n := range setups {
		if n != i {
			t.Fatalf("set-up numbers %v, want 0, 1, ...", setups)
		}
	}
	if len(betweens) == 0 || len(betweens) != len(setups)-1 || betweens[0] != 1 {
		t.Errorf("between ran before set-ups %v, want before every one but the first", betweens)
	}
	if got < (setupFor/20).Seconds() || got > 2*(setupFor/20).Seconds() {
		t.Errorf("median set-up %gs, want about %s", got, setupFor/20)
	}
}

func TestSegmentMediansIgnoreABurstInOnePart(t *testing.T) {
	xs := make([]float64, 301) // the last sample is dropped
	for i := range xs {
		xs[i] = float64(1 + i%10)
	}
	for i := 100; i < 200; i++ {
		xs[i] = 1000 // a burst of noise across the whole second part
	}
	parts := split(xs, 3)
	if len(parts) != 3 || len(parts[0]) != 100 || len(parts[2]) != 100 {
		t.Fatalf("split into %d parts of %d, want 3 of 100", len(parts), len(parts[0]))
	}
	if got := medianOf(parts, median); got != 5.5 {
		t.Errorf("median over parts %g, want 5.5", got)
	}
	tailOf := func(xs []float64) float64 { v, _, _ := tail(xs); return v }
	if got := medianOf(parts, tailOf); got != 9 { // p90 of 100: the ten 10s lie beyond
		t.Errorf("tail over parts %g, want 9", got)
	}
}

func TestWindowRates(t *testing.T) {
	at := []time.Duration{0, time.Second, 2 * time.Second, 2500 * time.Millisecond, 3 * time.Second}
	got := windowRates(at, 3*time.Second, 3)
	want := []float64{1, 1, 3} // an event at exactly the end falls in the last window
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rates %v, want %v", got, want)
		}
	}
}

func TestUnattributed(t *testing.T) {
	if got := unattributed(2, 1.5); got != 0.25 {
		t.Errorf("unattributed(2, 1.5) = %g, want 0.25", got)
	}
	if got := unattributed(1, 1.2); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("layers over the end-to-end time must read negative, got %g", got)
	}
	if got := unattributed(0, 1); got != 0 {
		t.Errorf("no end-to-end time: got %g, want 0", got)
	}
}

// okSend is a daemon stand-in that answers at once, or after stall for
// the request with index stallIdx.
func okSend(stallIdx int, stall time.Duration) func(request) reply {
	return func(req request) reply {
		r := reply{req: req, sent: time.Now(), status: http.StatusOK}
		if req.idx == stallIdx {
			time.Sleep(stall)
		}
		r.done = time.Now()
		return r
	}
}

// counter hands out consecutive requests, optionally slowly.
func counter(slowIdx int, slow time.Duration) func() request {
	var i atomic.Int64
	return func() request {
		idx := int(i.Add(1) - 1)
		if idx == slowIdx {
			time.Sleep(slow)
		}
		return request{idx: idx, pair: idx}
	}
}

func TestLatencyCountsFromDueBehindStalledServer(t *testing.T) {
	const stall = 300 * time.Millisecond
	out := openLoop(100, 10, 1, counter(-1, 0), okSend(0, stall))
	// Request 1 was due 10ms in but its only connection was busy with
	// request 0 until the stall ended: it must pay the wait.
	if lat := out[1].latency(); lat < stall-50*time.Millisecond {
		t.Errorf("request 1 latency %v from its due time, want about %v", lat, stall)
	}
	if svc := out[1].service(); svc > 100*time.Millisecond {
		t.Errorf("request 1 service time %v: the daemon answered at once", svc)
	}
	// Waiting for the connection is the daemon's delay, not the
	// generator's.
	for i, r := range out {
		if r.late > 100*time.Millisecond {
			t.Errorf("request %d: generator lateness %v behind a stalled daemon", i, r.late)
		}
	}
}

func TestGeneratorLateness(t *testing.T) {
	const slow = 80 * time.Millisecond
	out := openLoop(200, 20, 2, counter(5, slow), okSend(-1, 0))
	if out[5].late < slow-20*time.Millisecond {
		t.Errorf("request 5 was readied %v late by the generator, got lateness %v", slow, out[5].late)
	}
	var lates []float64
	for i, r := range out {
		if i != 5 {
			lates = append(lates, millis(r.late))
		}
	}
	// The slow request is the generator's alone; the requests after it
	// are late only because the generator fell behind, which counts.
	if out[6].late < slow/2 {
		t.Errorf("request 6, due 5ms after the slow one, reported lateness %v", out[6].late)
	}
	if m := median(lates); m > 50 {
		t.Errorf("median generator lateness %gms with an idle daemon", m)
	}
}

func TestClassifyHitsAndMisses(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ok := func(pair int, job string, sent int) reply {
		return reply{req: request{pair: pair}, jobID: job, sent: at(sent), status: http.StatusOK}
	}
	replies := []reply{
		ok(1, "a", 50), // repeat of pair 1 answered from cache: hit
		ok(1, "a", 10), // first send of pair 1: miss
		ok(2, "b", 20), // miss
		ok(1, "c", 30), // pair 1 again, recomputed (original still running): miss
		ok(1, "a", 60), // hit
		ok(3, "b", 70), // job id of pair 2 on another pair: duplicate
		{req: request{pair: 4}, status: http.StatusTooManyRequests, sent: at(80)}, // refused: neither
	}
	hit, dups := classify(replies)
	want := []bool{true, false, false, false, true, false, false}
	for i := range want {
		if hit[i] != want[i] {
			t.Errorf("reply %d: hit = %v, want %v", i, hit[i], want[i])
		}
	}
	if dups != 1 {
		t.Errorf("duplicates = %d, want 1", dups)
	}
	// Classification depends on send times, not on slice order.
	rev := make([]reply, len(replies))
	for i, r := range replies {
		rev[len(replies)-1-i] = r
	}
	hit2, dups2 := classify(rev)
	for i := range want {
		if hit2[len(replies)-1-i] != want[i] {
			t.Errorf("reversed order, reply %d: hit = %v, want %v", i, hit2[len(replies)-1-i], want[i])
		}
	}
	if dups2 != 1 {
		t.Errorf("reversed order: duplicates = %d, want 1", dups2)
	}
}

func TestMixIsSeededAndRepeatsEarlierPairs(t *testing.T) {
	a, b := newMixer(7, 26), newMixer(7, 26)
	repeats := 0
	const n = 4000
	for i := 0; i < n; i++ {
		ra, rb := a.next(), b.next()
		if ra != rb {
			t.Fatalf("request %d differs between equal seeds: %+v vs %+v", i, ra, rb)
		}
		if ra.idx != i {
			t.Fatalf("request %d has index %d", i, ra.idx)
		}
		if ra.pair != i {
			repeats++
			orig := a.reqs[ra.pair]
			if orig.pair != ra.pair || orig.body != ra.body || orig.seed != ra.seed {
				t.Fatalf("request %d repeats pair %d but sends %+v, original %+v", i, ra.pair, ra, orig)
			}
			if ra.pair >= i {
				t.Fatalf("request %d repeats a later pair %d", i, ra.pair)
			}
		}
	}
	if share := float64(repeats) / n; math.Abs(share-repeatShare) > 0.03 {
		t.Errorf("repeat share %.3f, want about %g", share, repeatShare)
	}
}

func TestCheckBipartitionRejectsWrongCut(t *testing.T) {
	h, err := fasthgp.FromEdges(4, [][]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(t.TempDir(), "path4", "nets", h)
	if err != nil {
		t.Fatal(err)
	}
	sides := "  v0 L\n  v1 L\n  v2 R\n  v3 R\n"
	if cut, err := checkBipartition(in, []byte("cutsize: 1 (of 3 nets)\n"+sides)); err != nil || cut != 1 {
		t.Errorf("true cut 1: got %d, %v", cut, err)
	}
	if _, err := checkBipartition(in, []byte("cutsize: 0 (of 3 nets)\n"+sides)); err == nil {
		t.Error("claimed cut 0 for a partition cutting one net was accepted")
	}
	if _, err := checkBipartition(in, []byte("cutsize: 1 (of 3 nets)\n  v0 L\n  v1 L\n  v2 R\n")); err == nil {
		t.Error("a side list missing a module was accepted")
	}
}

func TestCheckKWayAnswer(t *testing.T) {
	h, err := fasthgp.FromEdges(8, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	part := []int{0, 0, 1, 1, 2, 2, 3, 3}
	rep, err := verify.CheckKWay(h, part, kwayParts)
	if err != nil {
		t.Fatal(err)
	}
	fixed := []int8{0, -1, -1, -1, -1, -1, -1, 3}
	c := partition.Constraint{Epsilon: kwayEpsilon, FixedSide: fixed}
	good := &kway.Result{Part: part, K: kwayParts, CutNets: rep.CutNets, Connectivity: rep.Connectivity}
	if err := checkKWayAnswer(h, c, good, rep); err != nil {
		t.Errorf("a correct answer was rejected: %v", err)
	}
	understated := *good
	understated.Connectivity--
	if checkKWayAnswer(h, c, &understated, rep) == nil {
		t.Error("understated connectivity was accepted")
	}
	moved := []int{1, 0, 0, 1, 2, 2, 3, 3}
	mrep, err := verify.CheckKWay(h, moved, kwayParts)
	if err != nil {
		t.Fatal(err)
	}
	if checkKWayAnswer(h, c, &kway.Result{Part: moved, CutNets: mrep.CutNets, Connectivity: mrep.Connectivity}, mrep) == nil {
		t.Error("a pinned module outside its part was accepted")
	}
	heavy := []int{0, 0, 0, 1, 2, 2, 3, 3}
	hrep, err := verify.CheckKWay(h, heavy, kwayParts)
	if err != nil {
		t.Fatal(err)
	}
	if checkKWayAnswer(h, c, &kway.Result{Part: heavy, CutNets: hrep.CutNets, Connectivity: hrep.Connectivity}, hrep) == nil {
		t.Error("a part over the ε bound was accepted")
	}
}
