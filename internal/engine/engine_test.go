package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want int }{{-3, 1}, {0, 1}, {1, 1}, {7, 7}}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := NormalizeTo(0, 5); got != 5 {
		t.Errorf("NormalizeTo(0, 5) = %d, want 5", got)
	}
	if got := NormalizeTo(3, 5); got != 3 {
		t.Errorf("NormalizeTo(3, 5) = %d, want 3", got)
	}
	if got := NormalizeTo(0, 0); got != 1 {
		t.Errorf("NormalizeTo(0, 0) = %d, want 1", got)
	}
	if got := NormalizeParallelism(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NormalizeParallelism(0) = %d, want GOMAXPROCS", got)
	}
	if got := NormalizeParallelism(3); got != 3 {
		t.Errorf("NormalizeParallelism(3) = %d, want 3", got)
	}
}

func TestStartSeedStreamsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := StartSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("StartSeed(42, %d) collides with start %d", i, prev)
		}
		seen[s] = i
	}
	if StartSeed(1, 3) == StartSeed(2, 3) {
		t.Error("different seeds produced the same start stream")
	}
}

// scoreSpec is a toy multi-start whose per-start score is a pure
// function of the start's RNG stream.
func scoreSpec(starts, parallelism int, seed int64) Spec[int] {
	return Spec[int]{
		Starts:      starts,
		Parallelism: parallelism,
		Seed:        seed,
		Run: func(_ context.Context, start int, rng *rand.Rand, scratch *Scratch) (int, error) {
			buf := scratch.Ints(64)
			for i := range buf {
				buf[i] = rng.Intn(1000)
			}
			best := buf[0]
			for _, x := range buf {
				if x < best {
					best = x
				}
			}
			return best, nil
		},
		Better: func(a, b int) bool { return a < b },
		Cut:    func(v int) int { return v },
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		serial, sst, err := Run(context.Background(), scoreSpec(32, 1, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			parallel, pst, err := Run(context.Background(), scoreSpec(32, par, seed))
			if err != nil {
				t.Fatal(err)
			}
			if parallel != serial {
				t.Errorf("seed %d parallelism %d: result %d != serial %d", seed, par, parallel, serial)
			}
			if pst.BestStart != sst.BestStart {
				t.Errorf("seed %d parallelism %d: BestStart %d != serial %d", seed, par, pst.BestStart, sst.BestStart)
			}
			for i := range sst.Cuts {
				if pst.Cuts[i] != sst.Cuts[i] {
					t.Errorf("seed %d parallelism %d: Cuts[%d] = %d != serial %d", seed, par, i, pst.Cuts[i], sst.Cuts[i])
				}
			}
		}
	}
}

func TestTieBreakLowestStartIndex(t *testing.T) {
	spec := Spec[int]{
		Starts:      16,
		Parallelism: 8,
		Run: func(_ context.Context, start int, _ *rand.Rand, _ *Scratch) (int, error) {
			return 5, nil // every start ties
		},
		Better: func(a, b int) bool { return a < b },
	}
	for trial := 0; trial < 10; trial++ {
		_, st, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.BestStart != 0 {
			t.Fatalf("tie went to start %d, want 0", st.BestStart)
		}
	}
}

func TestCancellationReturnsBestSoFar(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	spec := Spec[int]{
		Starts:      64,
		Parallelism: 4,
		Run: func(ctx context.Context, start int, _ *rand.Rand, _ *Scratch) (int, error) {
			started <- struct{}{}
			if start > 0 {
				// Simulate work that notices cancellation mid-start.
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
			}
			return start, nil
		},
		Better: func(a, b int) bool { return a < b },
	}
	go func() {
		<-started
		cancel()
	}()
	v, st, err := Run(ctx, spec)
	if err != nil {
		t.Fatalf("cancelled run returned error %v, want best-so-far", err)
	}
	if v != 0 || st.BestStart != 0 {
		t.Errorf("best = %d (start %d), want start 0's result", v, st.BestStart)
	}
	if !st.Cancelled {
		t.Error("Stats.Cancelled = false after mid-run cancellation")
	}
	if st.StartsRun >= st.StartsRequested {
		t.Errorf("StartsRun = %d, want < %d", st.StartsRun, st.StartsRequested)
	}
	// All workers must have exited: no goroutine leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

func TestPreCancelledContextStillRunsStartZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, st, err := Run(ctx, scoreSpec(16, 4, 1))
	if err != nil {
		t.Fatalf("pre-cancelled run errored: %v", err)
	}
	if st.StartsRun != 1 || st.BestStart != 0 {
		t.Errorf("StartsRun = %d BestStart = %d, want 1 and 0", st.StartsRun, st.BestStart)
	}
	want, _, _ := Run(context.Background(), scoreSpec(1, 1, 1))
	if v != want {
		t.Errorf("start-0 result %d differs from dedicated run %d", v, want)
	}
}

func TestErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	spec := Spec[int]{
		Starts:      8,
		Parallelism: 4,
		Run: func(_ context.Context, start int, _ *rand.Rand, _ *Scratch) (int, error) {
			if start == 3 {
				return 0, fmt.Errorf("start 3: %w", boom)
			}
			return start, nil
		},
		Better: func(a, b int) bool { return a < b },
	}
	if _, _, err := Run(context.Background(), spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestScratchBuffersZeroedAndReused(t *testing.T) {
	s := GetScratch()
	defer PutScratch(s)
	a := s.Ints(8)
	for i := range a {
		a[i] = 99
	}
	b := s.Bools(4)
	b[0] = true
	w := s.Int64s(3)
	w[2] = 7
	s.Release()
	a2 := s.Ints(6)
	for i, x := range a2 {
		if x != 0 {
			t.Fatalf("reused int buffer not zeroed at %d", i)
		}
	}
	if &a2[0] != &a[0] {
		t.Error("int buffer was not reused after Release")
	}
	b2 := s.Bools(4)
	if b2[0] {
		t.Error("reused bool buffer not zeroed")
	}
	w2 := s.Int64s(3)
	if w2[2] != 0 {
		t.Error("reused int64 buffer not zeroed")
	}
	// Two concurrent leases must not alias.
	x, y := s.Ints(5), s.Ints(5)
	x[0] = 1
	if y[0] == 1 {
		t.Error("concurrent leases alias the same buffer")
	}
}

// TestScratchLeasesSmallestFit: a small lease must not take the large
// buffer a later large lease can reuse, or every start would allocate
// the large one again.
func TestScratchLeasesSmallestFit(t *testing.T) {
	s := new(Scratch)
	small, big := s.Ints(10), s.Ints(1000)
	s.Release()
	if got := s.Ints(8); &got[0] != &small[0] {
		t.Error("a small lease took the large buffer")
	}
	if got := s.Ints(900); &got[0] != &big[0] {
		t.Error("a large lease did not reuse the large buffer")
	}
}

func TestStatsAccounting(t *testing.T) {
	_, st, err := Run(context.Background(), scoreSpec(12, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.StartsRequested != 12 || st.StartsRun != 12 {
		t.Errorf("starts requested/run = %d/%d, want 12/12", st.StartsRequested, st.StartsRun)
	}
	if st.Parallelism != 3 {
		t.Errorf("Parallelism = %d, want 3", st.Parallelism)
	}
	if st.Cancelled {
		t.Error("Cancelled set on a complete run")
	}
	if len(st.Cuts) != 12 {
		t.Fatalf("len(Cuts) = %d, want 12", len(st.Cuts))
	}
	for i, c := range st.Cuts {
		if c == NotRun {
			t.Errorf("Cuts[%d] = NotRun on a complete run", i)
		}
	}
}

// TestCancellationMidStartOversubscribed cancels a run while most of
// an oversubscribed worker fleet (Parallelism well above GOMAXPROCS)
// is blocked inside its start, exercising the claim/cancel/reduce
// paths under maximum goroutine interleaving. The CI race step runs
// this package with -race, so the shared result arrays are also being
// checked for unsynchronized access here.
func TestCancellationMidStartOversubscribed(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 4
	if workers < 8 {
		workers = 8
	}
	starts := workers*2 + 8
	const fast = 3 // starts below this index complete immediately

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fastDone atomic.Int32
	spec := Spec[int]{
		Starts:      starts,
		Parallelism: workers,
		Seed:        42,
		Run: func(ctx context.Context, i int, rng *rand.Rand, _ *Scratch) (int, error) {
			v := 1000 + i - rng.Intn(2)
			if i < fast {
				fastDone.Add(1)
				return v, nil
			}
			// Block mid-start until cancellation, then return a usable
			// value — the best-so-far contract.
			<-ctx.Done()
			return v, nil
		},
		Better: func(a, b int) bool { return a < b },
		Cut:    func(v int) int { return v },
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for fastDone.Load() < fast && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	best, st, err := Run(ctx, spec)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled || st.StartsRun >= starts {
		t.Errorf("expected a cancelled partial run, got %d/%d (cancelled=%v)", st.StartsRun, starts, st.Cancelled)
	}
	if st.StartsRun < fast {
		t.Errorf("only %d starts ran, want at least the %d fast ones", st.StartsRun, fast)
	}
	// The returned best must be the exact minimum over the completed
	// starts as recorded in Cuts, and BestStart must point at it.
	want, wantIdx := 1<<30, -1
	for i, c := range st.Cuts {
		if c == NotRun {
			continue
		}
		if c < want {
			want, wantIdx = c, i
		}
	}
	if best != want || st.BestStart != wantIdx {
		t.Errorf("best = %d at start %d, want %d at %d", best, st.BestStart, want, wantIdx)
	}
	// Every completed start's cut must match an isolated re-execution
	// of its RNG stream.
	for i, c := range st.Cuts {
		if c == NotRun {
			continue
		}
		if expect := 1000 + i - StartRNG(42, i).Intn(2); c != expect {
			t.Errorf("start %d recorded %d, isolated re-run gives %d", i, c, expect)
		}
	}
}
