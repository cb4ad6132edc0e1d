package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"fasthgp"
)

// serve-mixed settings. The open loop runs for openShare of the
// measuring time at serveRate, below what the daemon sustains on two
// cores; the closed loop takes the rest. Each loop is cut into segments
// consecutive, equal parts, and latency and capacity are medians over
// the parts, so that a burst of machine noise within one part does not
// move them. latencyLimit is the bound goodput counts replies within.
const (
	serveRate     = 60.0
	openShare     = 0.5
	segments      = 3
	latencyLimit  = 250 * time.Millisecond
	clientTimeout = 30 * time.Second
	serveStarts   = 2
	repeatShare   = 0.25 // share of requests repeating an earlier pair
	repeatWindow  = 16   // how far back a repeat may reach
)

// request is one entry of the deterministic request mix.
type request struct {
	idx  int
	body int // index into the bodies
	seed int // engine seed sent in the query
	pair int // index of the request that introduced this (netlist, query) pair
}

func (r request) query() string { return fmt.Sprintf("starts=%d&seed=%d", serveStarts, r.seed) }

// mixer hands out the request mix in index order. The sequence depends
// only on the seed, never on timing. Fresh pairs take the bodies in
// seeded rounds, every body once per round, so each run sends every
// body equally often.
type mixer struct {
	mu      sync.Mutex
	rng     *rand.Rand
	nbodies int
	round   []int // bodies left in the current round
	reqs    []request
}

func newMixer(seed int64, nbodies int) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed)), nbodies: nbodies}
}

// next returns the next request of the mix.
func (m *mixer) next() request {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := len(m.reqs)
	var r request
	if i > 0 && m.rng.Float64() < repeatShare {
		back := m.rng.Intn(min(i, repeatWindow))
		r = m.reqs[m.reqs[i-1-back].pair]
		r.idx = i
	} else {
		if len(m.round) == 0 {
			m.round = m.rng.Perm(m.nbodies)
		}
		r = request{idx: i, body: m.round[0], seed: i, pair: i}
		m.round = m.round[1:]
	}
	m.reqs = append(m.reqs, r)
	return r
}

// reply is the client-side record of one request.
type reply struct {
	req    request
	due    time.Time // when the schedule wanted it sent (send time in the closed loop)
	sent   time.Time
	done   time.Time
	late   time.Duration // generator lateness: timer wake-up past the due time
	status int           // HTTP status, 0 for a transport error
	jobID  string
	cut    int
	tier   int
	wallMS int64 // the daemon's own compute time for the job
	err    string
	wrong  bool // a 200 whose answer the oracle rejected
}

// ok reports a verified 200.
func (r reply) ok() bool { return r.status == http.StatusOK && r.err == "" }

// latency is measured from the due time; a request that did not
// complete with a verified answer counts as missing every limit.
func (r reply) latency() time.Duration {
	if !r.ok() {
		return clientTimeout
	}
	return r.done.Sub(r.due)
}

// service is the time the daemon took as seen from the client.
func (r reply) service() time.Duration { return r.done.Sub(r.sent) }

// openLoop sends n requests, request i due at start + i/rate, over at
// most conns concurrent connections. Latency counts from the due time,
// so a request queued behind a stalled daemon pays for the stall.
// Generator lateness is the generator's own delay in readying a
// request — timer overshoot, mix generation, a backlog of its own — past
// its due time, or past the moment a connection came free when every
// connection was busy.
func openLoop(rate float64, n, conns int, next func() request, send func(request) reply) []reply {
	type ticket struct {
		slot int
		req  request
		due  time.Time
		late time.Duration
	}
	tickets := make(chan ticket)
	out := make([]reply, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tickets {
				r := send(t.req)
				r.due, r.late = t.due, t.late
				out[t.slot] = r
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var freed time.Time // when a connection last came free after all were busy
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		req := next()
		since := due
		if freed.After(since) {
			since = freed
		}
		t := ticket{slot: i, req: req, due: due, late: time.Since(since)}
		select {
		case tickets <- t:
		default:
			tickets <- t // every connection is busy: the daemon's delay
			freed = time.Now()
		}
	}
	close(tickets)
	wg.Wait()
	return out
}

// closedLoop keeps conns connections busy, each sending its next
// request as soon as the previous one completes, until the deadline.
func closedLoop(deadline time.Time, conns int, next func() request, send func(request) reply) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := send(next())
				r.due = r.sent
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// classify splits verified 200s into cache misses and hits by job id:
// the daemon answers a repeated (netlist, query) pair from its cache
// with the original job id, so among replies sharing a job id and a
// pair the earliest sent is the miss and the rest are hits. A job id
// shared by different pairs is a real duplicate: two jobs answered as
// one.
func classify(replies []reply) (hit []bool, duplicates int) {
	hit = make([]bool, len(replies))
	first := map[string]int{} // job id -> reply index of its earliest send
	for i, r := range replies {
		if !r.ok() || r.jobID == "" {
			continue
		}
		j, seen := first[r.jobID]
		switch {
		case !seen:
			first[r.jobID] = i
		case replies[j].req.pair != r.req.pair:
			duplicates++
		case r.sent.Before(replies[j].sent):
			hit[j] = true
			first[r.jobID] = i
		default:
			hit[i] = true
		}
	}
	return hit, duplicates
}

// daemon is one running hgpartd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	wal  string
	log  *lineWatch
}

// startDaemon boots hgpartd with its WAL in dir and waits for the first
// healthy /healthz.
func startDaemon(cfg config, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{wal: filepath.Join(dir, "wal"), log: newLineWatch("hgpartd: listening on ")}
	d.cmd = exec.Command(filepath.Join(cfg.bin, "hgpartd"), "-addr", "127.0.0.1:0", "-wal", d.wal)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case <-d.log.ready:
	case <-time.After(10 * time.Second):
		_, _ = d.stop() // the boot already failed; that is the error to report
		return nil, fmt.Errorf("hgpartd did not report its address: %s", d.log.String())
	}
	d.base = "http://" + d.log.value()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_, _ = d.stop() // the boot already failed; that is the error to report
			return nil, fmt.Errorf("hgpartd never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after a grace period),
// waits for it, and returns its peak RSS in KiB.
func (d *daemon) stop() (int64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // Wait below reports the outcome
		<-exited
		err = errors.New("hgpartd ignored SIGTERM; killed")
	}
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rss, err
}

// lineWatch collects a process's output and captures the rest of the
// first line that starts with prefix.
type lineWatch struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	prefix string
	found  string
	ready  chan struct{}
}

func newLineWatch(prefix string) *lineWatch {
	return &lineWatch{prefix: prefix, ready: make(chan struct{})}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.found == "" {
		s := w.buf.String()
		if i := strings.Index(s, w.prefix); i >= 0 {
			rest := s[i+len(w.prefix):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				w.found = strings.TrimSpace(rest[:j])
				close(w.ready)
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) value() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.found
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// sender posts requests to one daemon and checks every 200 with the
// oracle against the benchmark's own parse of the body.
type sender struct {
	base   string
	bodies []body
	client *http.Client
}

func newSender(base string, bodies []body, conns int) *sender {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &sender{base: base, bodies: bodies, client: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

func (s *sender) close() { s.client.Transport.(*http.Transport).CloseIdleConnections() }

func (s *sender) send(req request) reply {
	r := reply{req: req, sent: time.Now()}
	b := s.bodies[req.body]
	resp, err := s.client.Post(s.base+"/partition?"+req.query(), "text/plain", bytes.NewReader(b.raw))
	if err != nil {
		r.done, r.err = time.Now(), err.Error()
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done, r.status = time.Now(), resp.StatusCode
	if err != nil {
		r.err = err.Error()
		return r
	}
	if r.status != http.StatusOK {
		r.err = fmt.Sprintf("HTTP %d: %s", r.status, strings.TrimSpace(string(raw)))
		return r
	}
	var pr struct {
		JobID      string `json:"job_id"`
		Cut        int    `json:"cut"`
		Tier       int    `json:"tier"`
		Assignment []int  `json:"assignment"`
		WallMS     int64  `json:"wall_ms"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		r.err, r.wrong = "garbled 200 body: "+err.Error(), true
		return r
	}
	r.jobID, r.cut, r.tier, r.wallMS = pr.JobID, pr.Cut, pr.Tier, pr.WallMS
	if err := checkAssignment(b, pr.Assignment, pr.Cut); err != nil {
		r.err, r.wrong = "oracle: "+err.Error(), true
	}
	return r
}

// checkAssignment rebuilds a 0/1 assignment into a bipartition and has
// the oracle recompute the claimed cut and any inline pins.
func checkAssignment(b body, assignment []int, cut int) error {
	if len(assignment) != b.h.NumVertices() {
		return fmt.Errorf("assignment has %d entries, netlist has %d modules", len(assignment), b.h.NumVertices())
	}
	p := fasthgp.NewBipartition(b.h.NumVertices())
	for v, side := range assignment {
		switch side {
		case 0:
			p.Assign(v, fasthgp.Left)
		case 1:
			p.Assign(v, fasthgp.Right)
		default:
			return fmt.Errorf("assignment[%d] = %d, want 0 or 1", v, side)
		}
	}
	if _, err := fasthgp.VerifyCut(b.h, p, cut); err != nil {
		return err
	}
	if c := (fasthgp.Constraint{FixedSide: b.fixed}); !c.IsZero() {
		if _, err := fasthgp.VerifyConstraint(b.h, p, c); err != nil {
			return err
		}
	}
	return nil
}

// serveRun is one serve-mixed load run against a fresh daemon.
type serveRun struct {
	bodies           []body
	setup            float64 // median set-up seconds
	open, closed     []reply
	openWall         time.Duration
	closedStart      time.Time
	closedWall       time.Duration
	rssKiB, walBytes int64
	conns            int
}

// runServeLoad sets up (bodies + daemon boot to the first healthy
// /healthz), timing it with timeSetup and stopping each daemon but the
// last untimed, and drives the open then the closed loop against the
// last daemon.
func runServeLoad(cfg config) (*serveRun, error) {
	run := &serveRun{conns: runtime.NumCPU()}
	var d *daemon
	var err error
	run.setup, err = timeSetup(func(i int) error {
		if run.bodies, err = serveBodies(cfg.root, cfg.seed); err != nil {
			return err
		}
		d, err = startDaemon(cfg, filepath.Join(cfg.work, fmt.Sprintf("daemon-%d", i)))
		return err
	}, func() error {
		_, err := d.stop()
		return err
	})
	if err != nil {
		return nil, err
	}

	s := newSender(d.base, run.bodies, run.conns)
	defer s.close()
	m := newMixer(cfg.seed, len(run.bodies))
	openFor := time.Duration(float64(cfg.seconds) * openShare)
	n := int(serveRate * openFor.Seconds())
	start := time.Now()
	run.open = openLoop(serveRate, n, run.conns, m.next, s.send)
	run.openWall = lastDone(run.open).Sub(start)
	start = time.Now()
	run.closed = closedLoop(start.Add(cfg.seconds-openFor), run.conns, m.next, s.send)
	run.closedStart, run.closedWall = start, lastDone(run.closed).Sub(start)

	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	run.rssKiB = rss
	if fi, err := os.Stat(d.wal); err == nil {
		run.walBytes = fi.Size()
	}
	return run, nil
}

func lastDone(rs []reply) time.Time {
	var t time.Time
	for _, r := range rs {
		if r.done.After(t) {
			t = r.done
		}
	}
	return t
}

// all returns the open- and closed-loop replies together.
func (run *serveRun) all() []reply { return append(append([]reply(nil), run.open...), run.closed...) }

// account fills the outcome's correctness and attempt counts.
func (run *serveRun) account(out *outcome) {
	out.correct = true
	all := run.all()
	for _, r := range all {
		out.attempted++
		if !r.ok() {
			out.failed++
		}
		if r.wrong {
			out.correct = false
			out.note("request %d (%s): %s", r.req.idx, run.bodies[r.req.body].name, r.err)
		}
	}
	if _, dups := classify(all); dups > 0 {
		out.correct = false
		out.note("%d replies reuse the job id of a different (netlist, query) pair", dups)
	}
}

func runServe(cfg config) (*outcome, error) {
	run, err := runServeLoad(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	run.account(out)
	var lat, service []float64
	within, cutTotal := 0, 0
	for _, r := range run.open {
		lat = append(lat, millis(r.latency()))
		service = append(service, seconds(r.service()))
		if r.ok() {
			cutTotal += r.cut
			if r.latency() <= latencyLimit {
				within++
			}
		}
	}
	var completed []time.Duration
	for _, r := range run.closed {
		if r.ok() {
			completed = append(completed, r.done.Sub(run.closedStart))
		}
	}
	parts := split(lat, segments)
	_, tailP, beyond := tail(parts[0])
	out.set("setup_s", run.setup, "s")
	out.set("wall_s", median(service), "s")
	out.set("latency_p50_ms", medianOf(parts, median), "ms")
	out.set("latency_tail_ms", medianOf(parts, func(xs []float64) float64 { v, _, _ := tail(xs); return v }), "ms")
	out.set("goodput_rps", float64(within)/run.openWall.Seconds(), "1/s")
	out.set("capacity_rps", median(windowRates(completed, run.closedWall, segments)), "1/s")
	out.set("cut_total", float64(cutTotal), "count")
	out.set("peak_rss_mib", mib(run.rssKiB), "MiB")
	out.set("ok_ratio", okRatio(out), "ratio")
	out.note("open loop: %d requests at %g/s over %d connections; p50 and tail are medians over %d segments, tail p%g of %d samples (%d beyond it) each",
		len(run.open), serveRate, run.conns, segments, tailP, len(parts[0]), beyond)
	out.note("goodput counts verified replies within %s; closed loop: %d requests over %d connections",
		latencyLimit, len(run.closed), run.conns)
	return out, nil
}
