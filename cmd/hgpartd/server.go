package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fasthgp"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
	"fasthgp/internal/netio"
	"fasthgp/internal/partition"
)

// serverConfig is the daemon's tunable surface, set by flags in main.
type serverConfig struct {
	maxBody          int64         // request-body cap; beyond it the request is 413
	queue            int           // concurrent partition requests; beyond it 429
	reqTimeout       time.Duration // per-request wall cap
	chain            []string      // default fallback chain (empty = library default)
	starts           int           // default multi-start count per tier
	seed             int64         // default seed
	budget           time.Duration // default portfolio budget (0 = reqTimeout)
	parallelism      int
	kernelWorkers    int           // intra-start kernel workers (0 = serial); wall time only, never the result
	drainTimeout     time.Duration // SIGTERM drain grace
	maxHeap          uint64        // live-heap watermark; above it new work is shed with 503 (0 = off)
	breakerThreshold int           // consecutive tier failures tripping its breaker (0 = breakers off)
	breakerCooldown  time.Duration // open-breaker cooldown before a probe
	cacheSize        int           // result-cache entries (0 = caching off)
}

// server carries the daemon state: the admission semaphore, the job
// table, the optional WAL and circuit breakers, and the atomic
// counters behind GET /stats.
type server struct {
	cfg      serverConfig
	sem      chan struct{} // admission tokens; full queue = 429
	begin    time.Time
	jobs     *fleet.JobTable
	wal      *fleet.Journal      // nil = WAL disabled
	breakers *fasthgp.BreakerSet // nil = breakers disabled
	mem      *memWatcher         // nil = shedding disabled
	cache    *resultCache        // nil = result caching disabled

	draining  atomic.Bool   // SIGTERM received: new jobs answer 503 + Retry-After
	retrySalt atomic.Uint64 // mix.SplitMix64 counter behind Retry-After jitter

	requests   atomic.Int64 // partition requests admitted or rejected
	inFlight   atomic.Int64
	ok200      atomic.Int64
	bad400     atomic.Int64
	tooLarge   atomic.Int64 // 413
	busy429    atomic.Int64
	shed503    atomic.Int64 // memory-watermark sheds
	failed500  atomic.Int64
	degraded   atomic.Int64 // 200s answered by a fallback tier
	recovered  atomic.Int64 // panics converted to 500 by the middleware
	reqCounter atomic.Int64 // fault-injection index for hgpartd.request
}

func newServer(cfg serverConfig) *server {
	if cfg.queue < 1 {
		cfg.queue = 1
	}
	s := &server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.queue),
		begin: time.Now(),
		jobs:  fleet.NewJobTable(),
		mem:   newMemWatcher(cfg.maxHeap),
		cache: newResultCache(cfg.cacheSize),
	}
	if cfg.breakerThreshold > 0 {
		s.breakers = fasthgp.NewBreakerSet(fasthgp.BreakerConfig{
			Threshold: cfg.breakerThreshold,
			Cooldown:  cfg.breakerCooldown,
		})
	}
	return s
}

// attachWAL wires a recovered journal in: job ids continue after the
// dead process's, every replayed job answers on GET /jobs/{id}, and
// the interrupted ones are re-enqueued.
func (s *server) attachWAL(w *fleet.Journal, rep fleet.Replay) {
	s.wal = w
	rep.Restore(s.jobs)
	s.requeue(rep.Pending)
}

// requeue re-enqueues the WAL's accepted-but-unfinished jobs through
// the normal admission semaphore. Recovered work is never dropped: each
// job blocks for a token instead of answering 429 (there is no client
// to answer). A job interrupted again before finishing simply stays
// pending in the WAL for the next boot.
func (s *server) requeue(pending []fleet.JournalRecord) {
	for _, p := range pending {
		s.jobs.Restore(fleet.JobInfo{ID: p.JobID, Status: "requeued", Requeued: true})
		go func(p fleet.JournalRecord) {
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
			s.inFlight.Add(1)
			defer s.inFlight.Add(-1)
			s.runRecovered(p)
		}(p)
	}
}

// runRecovered re-runs one WAL-replayed job end to end.
func (s *server) runRecovered(p fleet.JournalRecord) {
	failJob := func(err error) {
		s.jobs.Update(p.JobID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", err.Error() })
		s.wal.Append(fleet.JournalRecord{Type: "failed", JobID: p.JobID, Error: err.Error()})
	}
	h, inlineFixed, err := netio.ReadWire(p.Format, strings.NewReader(p.Netlist))
	if err != nil {
		failJob(err)
		return
	}
	q, err := url.ParseQuery(p.Query)
	if err != nil {
		failJob(err)
		return
	}
	opts, _, err := s.portfolioOptions(q, h, inlineFixed)
	if err != nil {
		failJob(err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.reqTimeout)
	defer cancel()
	_, _ = s.execute(ctx, h, opts, p.JobID)
}

// handler builds the route table, every route behind the panic-recovery
// middleware: a panic anywhere in request handling becomes a 500 for
// that request and a counter bump, never a dead daemon.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", s.handlePartition)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/jobs/", s.handleJob)
	return s.recoverMiddleware(mux)
}

func (s *server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.recovered.Add(1)
				s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// partitionResponse is the JSON body of a successful POST /partition.
type partitionResponse struct {
	JobID      string `json:"job_id"`
	Modules    int    `json:"modules"`
	Nets       int    `json:"nets"`
	Cut        int    `json:"cut"`
	Tier       int    `json:"tier"`
	TierName   string `json:"tier_name"`
	Degraded   bool   `json:"degraded"`
	Assignment []int  `json:"assignment"` // side of module v: 0 = left, 1 = right
	WallMS     int64  `json:"wall_ms"`
}

func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST a netlist body to /partition")
		return
	}
	s.requests.Add(1)
	// Drain: once SIGTERM arrives, new jobs are refused with a retryable
	// 503 and a Retry-After hint while in-flight requests finish — the
	// client (or the coordinator fronting this worker) re-routes instead
	// of watching a connection die when the drain deadline passes.
	if s.draining.Load() {
		w.Header().Set("Retry-After", fleet.RetryAfterSeconds(s.cfg.drainTimeout))
		s.writeError(w, http.StatusServiceUnavailable, "draining: daemon is shutting down; retry another instance")
		return
	}
	// Memory-aware shedding: above the live-heap watermark new work is
	// refused with a retryable 503 instead of marching toward the OOM
	// killer (which would take every in-flight request down with it).
	if s.mem != nil && s.mem.shouldShed() {
		w.Header().Set("Retry-After", s.retryAfterHint(2))
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shedding load: live heap above %d-byte watermark; retry later", s.mem.limit))
		return
	}
	// Admission control: a full queue answers 429 immediately rather
	// than stacking goroutines until memory runs out.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", s.retryAfterHint(1))
		s.writeError(w, http.StatusTooManyRequests, "work queue full; retry later")
		return
	}
	defer func() { <-s.sem }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	reqIdx := int(s.reqCounter.Add(1) - 1)
	faultinject.Fire(faultinject.PointServeRequest, reqIdx)

	// The body is capped before parsing; MaxBytesReader makes the
	// reader fail once cfg.maxBody is exceeded, which we map to 413
	// (oversized) as distinct from 400 (malformed). The raw bytes are
	// kept: an accepted request is journaled to the WAL verbatim so a
	// crash can replay it.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	format := r.URL.Query().Get("format")
	h, inlineFixed, err := netio.ReadWire(format, bytes.NewReader(raw))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, optsKey, err := s.portfolioOptions(r.URL.Query(), h, inlineFixed)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Result cache: an identical (netlist fingerprint, options) pair is
	// answered from memory with the originally computed body — same
	// job_id, no WAL record, no engine run. Only non-degraded successes
	// are ever stored, so a hit is always a full-fidelity answer.
	var ck cacheKey
	if s.cache != nil {
		ck = cacheKey{fingerprint: fingerprintFor(h), opts: optsKey}
		if resp, ok := s.cache.get(ck); ok {
			s.writePartition(w, resp, reqIdx)
			return
		}
	}

	// A propagated deadline already in the past is refused before the
	// job is accepted (and journaled): the caller gave up, and a WAL
	// record with no outcome would be replayed as pending at next boot.
	timeout, expired := s.requestTimeout(r)
	if expired {
		s.writeError(w, http.StatusGatewayTimeout, "propagated deadline already expired")
		return
	}

	// The request is now accepted: give it a job id and journal it
	// before running, so a crash from here on re-enqueues it at boot.
	jobID := s.jobs.Create()
	s.wal.Append(fleet.JournalRecord{Type: "accepted", JobID: jobID,
		Format: format, Query: r.URL.RawQuery, Netlist: string(raw)})

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp, err := s.execute(ctx, h, opts, jobID)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("partition failed: %v", err))
		return
	}
	if s.cache != nil && !resp.Degraded {
		s.cache.put(ck, resp)
	}
	s.writePartition(w, resp, reqIdx)
}

// execute runs the portfolio for one accepted job, updating the job
// table and journaling the outcome. Shared by live requests and boot
// recovery.
func (s *server) execute(ctx context.Context, h *fasthgp.Hypergraph, opts []fasthgp.PortfolioOption, jobID string) (partitionResponse, error) {
	s.jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status = "running" })
	start := time.Now()
	res, err := fasthgp.PartitionPortfolio(ctx, h, opts...)
	wallMS := time.Since(start).Milliseconds()
	if err != nil {
		s.jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status, j.Error, j.WallMS = "failed", err.Error(), wallMS })
		s.wal.Append(fleet.JournalRecord{Type: "failed", JobID: jobID, Error: err.Error()})
		return partitionResponse{}, err
	}
	if res.Degraded {
		s.degraded.Add(1)
	}
	assignment := make([]int, h.NumVertices())
	for v := range assignment {
		if res.Partition.Side(v) == partition.Right {
			assignment[v] = 1
		}
	}
	s.jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS = "done", res.CutSize, res.TierName, res.Degraded, wallMS
	})
	s.wal.Append(fleet.JournalRecord{Type: "done", JobID: jobID,
		Cut: res.CutSize, TierName: res.TierName, Degraded: res.Degraded, WallMS: wallMS})
	return partitionResponse{
		JobID:      jobID,
		Modules:    h.NumVertices(),
		Nets:       h.NumEdges(),
		Cut:        res.CutSize,
		Tier:       res.Tier,
		TierName:   res.TierName,
		Degraded:   res.Degraded,
		Assignment: assignment,
		WallMS:     wallMS,
	}, nil
}

// startDraining flips the daemon into drain mode: new partition
// requests answer 503 + Retry-After while in-flight ones finish.
func (s *server) startDraining() { s.draining.Store(true) }

// requestTimeout derives one request's wall budget: the configured
// -req-timeout, capped by a coordinator-propagated X-Request-Deadline
// header (unix milliseconds). expired reports a deadline already in
// the past — the caller gave up; running would waste a worker slot.
func (s *server) requestTimeout(r *http.Request) (timeout time.Duration, expired bool) {
	timeout = s.cfg.reqTimeout
	hdr := r.Header.Get("X-Request-Deadline")
	if hdr == "" {
		return timeout, false
	}
	ms, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil {
		return timeout, false // malformed propagation never breaks a request
	}
	remaining := time.Until(time.UnixMilli(ms))
	if remaining <= 0 {
		return 0, true
	}
	if remaining < timeout {
		timeout = remaining
	}
	return timeout, false
}

// handleJob serves GET /jobs/{id} from the job table (rebuilt from the
// WAL at boot, so it answers for jobs the dead process accepted).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET /jobs/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, http.StatusBadRequest, "want /jobs/{id}")
		return
	}
	job, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("job %q not tracked (finished jobs are evicted after %d newer jobs)", id, fleet.MaxJobs))
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// portfolioOptions merges per-request query parameters over the
// daemon's configured defaults. Alongside the option list it returns
// the canonical key string for the result cache: every parameter that
// can change the computed partition (chain, starts, seed, budget, and
// the balance contract — epsilon, fixed vertices from the query or
// inline netlist directives) in a fixed rendering, after defaulting —
// so ?starts=8 and an absent starts under the default 8 share a cache
// line, while runs under different ε or fixed sets never share one
// (the netlist fingerprint alone would collide: inline fixed
// directives don't change the hypergraph). Parallelism is excluded:
// the engine guarantees it never changes the result.
func (s *server) portfolioOptions(q url.Values, h *fasthgp.Hypergraph, inlineFixed []int8) ([]fasthgp.PortfolioOption, string, error) {
	chain, starts, seed, budget := s.cfg.chain, s.cfg.starts, s.cfg.seed, s.cfg.budget
	if v := q.Get("chain"); v != "" {
		chain = strings.Split(v, ",")
	}
	if v := q.Get("starts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, "", fmt.Errorf("bad starts %q", v)
		}
		starts = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, "", fmt.Errorf("bad seed %q", v)
		}
		seed = n
	}
	if v := q.Get("budget"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, "", fmt.Errorf("bad budget %q", v)
		}
		budget = d
	}
	if budget <= 0 || budget > s.cfg.reqTimeout {
		budget = s.cfg.reqTimeout
	}
	constraint := fasthgp.Constraint{FixedSide: inlineFixed}
	if v := q.Get("epsilon"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || eps < 0 {
			return nil, "", fmt.Errorf("bad epsilon %q", v)
		}
		constraint.Epsilon = eps
	}
	if v := q.Get("fixed"); v != "" {
		fixed, err := fasthgp.ParseFixedSpec(v, h.NumVertices())
		if err != nil {
			return nil, "", err
		}
		constraint.FixedSide = fixed
	}
	if err := constraint.Validate(h.NumVertices(), 2); err != nil {
		return nil, "", err
	}
	opts := []fasthgp.PortfolioOption{
		fasthgp.WithStarts(starts), fasthgp.WithSeed(seed), fasthgp.WithBudget(budget),
		fasthgp.WithParallelism(s.cfg.parallelism),
		fasthgp.WithKernelWorkers(s.cfg.kernelWorkers),
	}
	if len(chain) > 0 {
		opts = append(opts, fasthgp.WithChain(chain...))
	}
	if s.breakers != nil {
		opts = append(opts, fasthgp.WithBreakers(s.breakers))
	}
	if !constraint.IsZero() {
		opts = append(opts, fasthgp.WithConstraint(constraint))
	}
	key := fmt.Sprintf("chain=%s starts=%d seed=%d budget=%s constraint=%q",
		strings.Join(chain, ","), starts, seed, budget, constraint.Key())
	return opts, key, nil
}

// handleHealthz is the liveness/readiness probe. It always answers
// HTTP 200 while the process serves (liveness); degradation — open
// breakers, the heap above the shedding watermark, WAL append errors —
// is reported in the body as status "degraded" with the reasons, plus
// the queue depth, per-tier breaker states, and the age of the last
// durable WAL record.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":         "ok",
		"uptime_ms":      time.Since(s.begin).Milliseconds(),
		"queue_depth":    len(s.sem),
		"queue_capacity": s.cfg.queue,
		"jobs":           s.jobs.Counts(),
	}
	var reasons []string
	if s.breakers != nil {
		states := s.breakers.States()
		resp["breakers"] = states
		for name, state := range states {
			if state == "open" {
				reasons = append(reasons, "circuit breaker open: "+name)
			}
		}
	}
	if s.mem != nil {
		heap := s.mem.heapBytes()
		resp["heap_bytes"] = heap
		resp["max_heap_bytes"] = s.mem.limit
		if heap > s.mem.limit {
			reasons = append(reasons, "live heap above shedding watermark")
		}
	}
	if s.cache != nil {
		resp["cache"] = s.cache.snapshot()
	} else {
		resp["cache"] = false
	}
	reasons = append(reasons, s.wal.Health(resp)...)
	if s.draining.Load() {
		resp["draining"] = true
		reasons = append(reasons, "draining: shutting down")
	}
	if len(reasons) > 0 {
		sort.Strings(reasons)
		resp["status"] = "degraded"
		resp["degraded_reasons"] = reasons
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var cache any = false
	if s.cache != nil {
		cache = s.cache.snapshot()
	}
	stats := map[string]any{
		"cache":            cache,
		"requests":         s.requests.Load(),
		"in_flight":        s.inFlight.Load(),
		"ok":               s.ok200.Load(),
		"bad_request":      s.bad400.Load(),
		"too_large":        s.tooLarge.Load(),
		"busy":             s.busy429.Load(),
		"shed":             s.shed503.Load(),
		"failed":           s.failed500.Load(),
		"degraded":         s.degraded.Load(),
		"panics_recovered": s.recovered.Load(),
		"jobs":             s.jobs.Counts(),
		"queue_capacity":   s.cfg.queue,
		"uptime_ms":        time.Since(s.begin).Milliseconds(),
	}
	s.wal.Stats(stats)
	s.writeJSON(w, http.StatusOK, stats)
}

func (s *server) writeJSON(w http.ResponseWriter, code int, v any) {
	s.countStatus(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]any{"error": msg, "status": code})
}

func (s *server) countStatus(code int) {
	switch code {
	case http.StatusBadRequest:
		s.bad400.Add(1)
	case http.StatusRequestEntityTooLarge:
		s.tooLarge.Add(1)
	case http.StatusTooManyRequests:
		s.busy429.Add(1)
	case http.StatusServiceUnavailable:
		s.shed503.Add(1)
	case http.StatusInternalServerError:
		s.failed500.Add(1)
	}
}
