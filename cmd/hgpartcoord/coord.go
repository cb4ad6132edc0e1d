package main

import (
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
	"sync"
	"sync/atomic"
	"time"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/fleet"
)

// coordConfig is the coordinator's tunable surface, set by flags.
type coordConfig struct {
	maxBody      int64         // request-body cap; beyond it 413
	reqTimeout   time.Duration // per-request wall cap (propagated to workers)
	retries      int           // max forward attempts per request
	backoff      fleet.BackoffConfig
	heartbeatTTL time.Duration // silence moving a worker active -> suspect
	ejectAfter   int           // TTLs of silence before ejection
	replicas     int           // ring virtual nodes per worker
	drainTimeout time.Duration
	hedgeDelay   time.Duration // delayed-duplicate threshold (0 = hedging off)
}

// coord is the coordinator state: the worker registry (liveness +
// breakers), the consistent-hash ring, the handoff ledger, the job
// table, and the optional WAL.
type coord struct {
	cfg      coordConfig
	registry *fleet.Registry
	ring     *fleet.Ring
	handoff  *fleet.HandoffQueue
	jobs     *fleet.JobTable
	wal      *fleet.Journal // nil = WAL disabled
	client   *http.Client
	stdout   io.Writer
	begin    time.Time

	draining   atomic.Bool
	fwdCounter atomic.Int64 // fault-injection index for fleet.forward

	flightMu sync.Mutex
	flights  map[fleet.JobKey]*flight // live single-flight computations

	probeMat atomic.Pointer[probeMaterial] // last verified job, replayed as quarantine probe

	requests    atomic.Int64
	ok200       atomic.Int64
	failed      atomic.Int64
	rerouted    atomic.Int64 // forwards answered by a non-primary worker
	verified    atomic.Int64 // worker answers that passed the oracle
	invalid     atomic.Int64 // worker answers the oracle rejected (never delivered)
	quarantines atomic.Int64 // quarantine transitions
	probes      atomic.Int64 // readmission probes sent
	readmitted  atomic.Int64 // quarantine releases
	hedges      atomic.Int64 // delayed duplicates fired
	hedgeWins   atomic.Int64 // races won by the hedge
	collapsed   atomic.Int64 // requests answered by another flight's computation
}

func newCoord(cfg coordConfig, registryCfg fleet.RegistryConfig, stdout io.Writer) *coord {
	if cfg.retries < 1 {
		cfg.retries = 1
	}
	return &coord{
		cfg:      cfg,
		registry: fleet.NewRegistry(registryCfg),
		ring:     fleet.NewRing(cfg.replicas),
		handoff:  fleet.NewHandoffQueue(0),
		jobs:     fleet.NewJobTable(),
		flights:  make(map[fleet.JobKey]*flight),
		client:   &http.Client{}, // per-request deadlines come from ctx
		stdout:   stdout,
		begin:    time.Now(),
	}
}

// attachWAL wires a recovered journal in: job ids continue after the
// dead process's, replayed outcomes answer on /jobs/{id}, and each
// pending record is re-enqueued as a detached job under its routing key.
func (c *coord) attachWAL(w *fleet.Journal, rep fleet.Replay) {
	c.wal = w
	rep.Restore(c.jobs)
	pending := make([]fleet.Job, len(rep.Pending))
	for i, rec := range rep.Pending {
		pending[i] = fleet.Job{
			ID:       rec.JobID,
			Key:      fleet.JobKey{Fingerprint: rec.Fingerprint, Opts: rec.Opts},
			Format:   rec.Format,
			Query:    rec.Query,
			Netlist:  rec.Netlist,
			Detached: true, // its client died with the old process
		}
	}
	c.requeue(pending)
}

// requeue re-enqueues WAL-recovered pending jobs as detached handoffs.
// Each runs in its own goroutine that waits (with backoff) for workers
// to register — recovered work is never dropped, only delayed.
func (c *coord) requeue(pending []fleet.Job) {
	for _, job := range pending {
		c.jobs.Restore(fleet.JobInfo{ID: job.ID, Status: "requeued", Requeued: true})
		if prev, dup := c.handoff.Admit(job); dup {
			// The at-least-once duplicate: an identical job already
			// completed, answer from memory without running.
			c.finishFromMemory(job.ID, prev)
			continue
		}
		go c.runDetached(job)
	}
}

// finishFromMemory marks a deduplicated job done with the remembered
// outcome of its key's first completion.
func (c *coord) finishFromMemory(jobID string, d fleet.Done) {
	c.jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.Worker = "done", d.Cut, d.TierName, d.Degraded, d.Worker
	})
	c.wal.Append(fleet.JournalRecord{Type: "done", JobID: jobID,
		Cut: d.Cut, TierName: d.TierName, Worker: d.Worker, Degraded: d.Degraded})
}

// sweep advances the liveness state machine once: newly ejected
// workers leave the ring and their detached handoff jobs are reclaimed
// and re-forwarded to survivors. It also fires readmission probes at
// quarantined workers (integrity.go).
func (c *coord) sweep() {
	defer c.probeQuarantined()
	for _, id := range c.registry.Sweep() {
		c.ring.Remove(id)
		reclaimed := c.handoff.Reclaim(id)
		fmt.Fprintf(c.stdout, "hgpartcoord: ejected %s (heartbeat silence), reclaiming %d handoff job(s)\n", id, len(reclaimed))
		for _, job := range reclaimed {
			job.Worker = ""
			if prev, dup := c.handoff.Admit(job); dup {
				c.finishFromMemory(job.ID, prev)
				continue
			}
			c.jobs.Update(job.ID, func(j *fleet.JobInfo) { j.Status, j.Requeued = "requeued", true })
			go c.runDetached(job)
		}
	}
}

// sweepLoop runs sweep until stop closes.
func (c *coord) sweepLoop(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.sweep()
		}
	}
}

// handler builds the route table behind a panic-recovery middleware.
func (c *coord) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", c.handlePartition)
	mux.HandleFunc("/register", c.handleRegister)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/deregister", c.handleDeregister)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/jobs/", c.handleJob)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// workerMsg is the body of /register, /heartbeat and /deregister.
type workerMsg struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

func (c *coord) handleRegister(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !decodeWorkerMsg(w, r, &msg) {
		return
	}
	if msg.Addr == "" {
		writeError(w, http.StatusBadRequest, "register needs an addr")
		return
	}
	rejoined := c.registry.Upsert(msg.ID, msg.Addr)
	c.ring.Add(msg.ID)
	if rejoined {
		fmt.Fprintf(c.stdout, "hgpartcoord: worker %s rejoined via register\n", msg.ID)
	} else {
		fmt.Fprintf(c.stdout, "hgpartcoord: worker %s registered at %s\n", msg.ID, msg.Addr)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"heartbeat_interval_ms": (c.cfg.heartbeatTTL / 3).Milliseconds(),
	})
}

func (c *coord) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !decodeWorkerMsg(w, r, &msg) {
		return
	}
	known, rejoined := c.registry.Heartbeat(msg.ID)
	if !known {
		writeError(w, http.StatusNotFound, "unknown worker; re-register")
		return
	}
	if rejoined {
		c.ring.Add(msg.ID)
		fmt.Fprintf(c.stdout, "hgpartcoord: worker %s rejoined via heartbeat\n", msg.ID)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *coord) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var msg workerMsg
	if !decodeWorkerMsg(w, r, &msg) {
		return
	}
	c.registry.Remove(msg.ID)
	c.ring.Remove(msg.ID)
	// A draining worker rejects new work but finishes what it holds, so
	// its detached jobs are reclaimed exactly like an ejection's.
	for _, job := range c.handoff.Reclaim(msg.ID) {
		job.Worker = ""
		if prev, dup := c.handoff.Admit(job); dup {
			c.finishFromMemory(job.ID, prev)
			continue
		}
		go c.runDetached(job)
	}
	fmt.Fprintf(c.stdout, "hgpartcoord: worker %s deregistered\n", msg.ID)
	w.WriteHeader(http.StatusNoContent)
}

func decodeWorkerMsg(w http.ResponseWriter, r *http.Request, msg *workerMsg) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(msg); err != nil || msg.ID == "" {
		writeError(w, http.StatusBadRequest, "want JSON body with a worker id")
		return false
	}
	return true
}

func (c *coord) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a netlist body to /partition")
		return
	}
	c.requests.Add(1)
	if c.draining.Load() {
		w.Header().Set("Retry-After", fleet.RetryAfterSeconds(c.cfg.drainTimeout))
		writeError(w, http.StatusServiceUnavailable, "draining: coordinator is shutting down")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.maxBody))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	format := r.URL.Query().Get("format")
	// The coordinator parses the netlist for two jobs: the fingerprint
	// (routing/dedup key) and the verification contract every worker
	// answer is judged against before delivery. Garbage is rejected
	// before it wastes a worker's time; the raw bytes are forwarded
	// verbatim.
	vs, err := newVerifySpec(format, raw, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := fleet.JobKey{
		Fingerprint: checkpoint.HashHypergraph(vs.h),
		Opts:        canonicalOpts(r.URL.Query()),
	}

	deadline := time.Now().Add(c.cfg.reqTimeout)
	if hdr := r.Header.Get("X-Request-Deadline"); hdr != "" {
		if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil {
			if d := time.UnixMilli(ms); d.Before(deadline) {
				deadline = d
			}
		}
	}
	if !deadline.After(time.Now()) {
		writeError(w, http.StatusGatewayTimeout, "propagated deadline already expired")
		return
	}

	// Accepted: job id, WAL record, handoff ledger entry (attached: this
	// handler owns the retries). From here on the job is never dropped —
	// it completes, fails permanently, or survives in the WAL.
	jobID := c.jobs.Create()
	job := fleet.Job{ID: jobID, Key: key, Format: format, Query: r.URL.RawQuery, Netlist: string(raw)}
	c.wal.Append(fleet.JournalRecord{Type: "accepted", JobID: jobID,
		Format: format, Query: r.URL.RawQuery, Netlist: string(raw),
		Fingerprint: key.Fingerprint, Opts: key.Opts})
	c.handoff.Admit(job)

	resp, worker, ferr := c.dispatch(r.Context(), job, vs, deadline)
	if ferr != nil {
		if r.Context().Err() != nil {
			// The client is gone mid-retry: leave the job detached so
			// ejection reclaim (or the next boot's WAL replay) finishes it.
			c.handoff.Detach(jobID)
			c.jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status = "requeued" })
			writeError(w, http.StatusServiceUnavailable, "client canceled mid-forward; job remains queued")
			return
		}
		var perm *permanentError
		if errors.As(ferr, &perm) {
			// The worker judged the request itself bad: proxy its answer
			// and forget the job (a later identical request runs afresh).
			c.handoff.Fail(jobID)
			c.jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", perm.body })
			c.wal.Append(fleet.JournalRecord{Type: "failed", JobID: jobID, Error: perm.body})
			writeRaw(w, perm.status, perm.body)
			return
		}
		c.failed.Add(1)
		c.handoff.Fail(jobID)
		c.jobs.Update(jobID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", ferr.Error() })
		c.wal.Append(fleet.JournalRecord{Type: "failed", JobID: jobID, Error: ferr.Error()})
		writeError(w, http.StatusBadGateway, fmt.Sprintf("all forwards failed: %v", ferr))
		return
	}

	c.handoff.Complete(jobID, fleet.Done{Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded})
	c.jobs.Update(jobID, func(j *fleet.JobInfo) {
		j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", resp.Cut, resp.TierName, resp.Degraded, resp.WallMS, worker
	})
	c.wal.Append(fleet.JournalRecord{Type: "done", JobID: jobID,
		Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded, WallMS: resp.WallMS})
	c.keepProbeMaterial(job, vs)

	resp.JobID = jobID // the coordinator's id, not the worker's
	resp.Worker = worker
	c.ok200.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// runDetached drives one detached job (WAL-recovered or reclaimed from
// a dead worker) to completion: forward with retries, and if the whole
// fleet is unreachable, wait with capped backoff and try again. The
// loop only gives up on a permanent (4xx) outcome or coordinator drain
// — an accepted job is otherwise never dropped.
func (c *coord) runDetached(job fleet.Job) {
	job.Detached = true
	vs, err := verifySpecForJob(job)
	if err != nil {
		// The stored request no longer parses (schema drift across a
		// version boundary): permanently failed, never silently served
		// unverified.
		c.handoff.Fail(job.ID)
		c.jobs.Update(job.ID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", err.Error() })
		c.wal.Append(fleet.JournalRecord{Type: "failed", JobID: job.ID, Error: err.Error()})
		return
	}
	for round := 0; ; round++ {
		if c.draining.Load() {
			return // the WAL still holds it; the next boot resumes
		}
		deadline := time.Now().Add(c.cfg.reqTimeout)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp, worker, err := c.forward(ctx, job, vs, deadline)
		cancel()
		if err == nil {
			c.handoff.Complete(job.ID, fleet.Done{Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded})
			c.jobs.Update(job.ID, func(j *fleet.JobInfo) {
				j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", resp.Cut, resp.TierName, resp.Degraded, resp.WallMS, worker
			})
			c.wal.Append(fleet.JournalRecord{Type: "done", JobID: job.ID,
				Cut: resp.Cut, TierName: resp.TierName, Worker: worker, Degraded: resp.Degraded, WallMS: resp.WallMS})
			c.keepProbeMaterial(job, vs)
			return
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			c.handoff.Fail(job.ID)
			c.jobs.Update(job.ID, func(j *fleet.JobInfo) { j.Status, j.Error = "failed", perm.body })
			c.wal.Append(fleet.JournalRecord{Type: "failed", JobID: job.ID, Error: perm.body})
			return
		}
		// Transient: every candidate failed or no workers are registered
		// yet. Back off (capped) and go around.
		wait := c.cfg.backoff.Delay(round)
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		time.Sleep(wait)
	}
}

// canonicalOpts renders the result-affecting query parameters in a
// fixed order — the options half of the dedup key. The coordinator
// cannot default unset parameters the way a worker does (it does not
// know the worker's flags), so the key is the literal, sorted
// parameter set; two requests with identical parameters always share a
// key, which is all at-least-once dedup needs.
func canonicalOpts(q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		if k == "format" {
			continue // part of the netlist identity, not the options
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		vals := append([]string(nil), q[k]...)
		sort.Strings(vals)
		fmt.Fprintf(&b, "%s=%s ", k, strings.Join(vals, ","))
	}
	return strings.TrimSpace(b.String())
}

func (c *coord) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /jobs/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, "want /jobs/{id}")
		return
	}
	job, ok := c.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %q not tracked (finished jobs are evicted after %d newer jobs)", id, fleet.MaxJobs))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleHealthz always answers 200 while the process serves; the body
// carries the fleet view: every worker's liveness state and breaker,
// the ring membership, handoff-queue counters, and degraded reasons
// (ejected workers, open breakers, WAL errors, drain).
func (c *coord) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := c.registry.Snapshot()
	resp := map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(c.begin).Milliseconds(),
		"workers":   workers,
		"ring":      c.ring.Members(),
		"handoff":   c.handoff.Stats(),
		"jobs":      c.jobs.Counts(),
	}
	var reasons []string
	for _, wk := range workers {
		if wk.State == "ejected" {
			reasons = append(reasons, "worker ejected: "+wk.ID)
		}
		if wk.Quarantined {
			reasons = append(reasons, "worker quarantined: "+wk.ID)
		}
		if wk.Breaker == "open" {
			reasons = append(reasons, "worker breaker open: "+wk.ID)
		}
	}
	if q := c.registry.QuarantinedIDs(); len(q) > 0 {
		resp["quarantined"] = q
	}
	reasons = append(reasons, c.wal.Health(resp)...)
	if c.draining.Load() {
		resp["draining"] = true
		reasons = append(reasons, "draining: shutting down")
	}
	if len(reasons) > 0 {
		sort.Strings(reasons)
		resp["status"] = "degraded"
		resp["degraded_reasons"] = reasons
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *coord) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"requests":    c.requests.Load(),
		"ok":          c.ok200.Load(),
		"failed":      c.failed.Load(),
		"rerouted":    c.rerouted.Load(),
		"forwards":    c.fwdCounter.Load(),
		"verified":    c.verified.Load(),
		"invalid":     c.invalid.Load(),
		"quarantines": c.quarantines.Load(),
		"quarantined": c.registry.QuarantinedIDs(),
		"probes":      c.probes.Load(),
		"readmitted":  c.readmitted.Load(),
		"hedges":      c.hedges.Load(),
		"hedge_wins":  c.hedgeWins.Load(),
		"collapsed":   c.collapsed.Load(),
		"handoff":     c.handoff.Stats(),
		"jobs":        c.jobs.Counts(),
		"workers":     c.registry.Len(),
		"uptime_ms":   time.Since(c.begin).Milliseconds(),
	}
	c.wal.Stats(stats)
	writeJSON(w, http.StatusOK, stats)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}

// writeRaw proxies a worker's error body verbatim.
func writeRaw(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	io.WriteString(w, body)
}
