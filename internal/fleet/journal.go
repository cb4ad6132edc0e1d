package fleet

// Job journal: the write-ahead log both daemons keep of accepted jobs,
// on the checkpoint journal's crash-safe frames (CRC-framed records,
// fsync per append, torn tail truncated on open) with JSON payloads.
// Every accepted request is journaled — job id, netlist body, query,
// and for the coordinator its routing key — before it runs, and its
// outcome when it finishes. A daemon that dies mid-request therefore
// leaves an "accepted" record with no terminal record; replay returns
// those as pending so the next boot re-runs them, and GET /jobs/{id}
// answers for every journaled job. Each daemon stamps its own purpose
// tag into the header, so neither ever replays the other's log.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fasthgp/internal/checkpoint"
)

// Journal purpose tags, one per daemon.
const (
	PurposeWorker      = "hgpartd-wal"
	PurposeCoordinator = "hgpartcoord-wal"
)

// journalVersion is bumped whenever the record schema changes.
const journalVersion = 1

// journalHeader is the header payload identifying the file.
type journalHeader struct {
	Version int    `json:"version"`
	Purpose string `json:"purpose"`
}

// JournalRecord is one JSON frame. Type "accepted" carries the request
// (enough to re-run it); "done"/"failed" carry the outcome. The
// coordinator-only fields (Fingerprint, Opts, Worker) are omitted when
// empty, so a worker's frames carry exactly the worker's fields.
type JournalRecord struct {
	Type  string `json:"type"` // accepted | done | failed
	JobID string `json:"job_id"`

	// accepted
	Format      string `json:"format,omitempty"`
	Query       string `json:"query,omitempty"` // raw query string
	Netlist     string `json:"netlist,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Opts        string `json:"opts,omitempty"`

	// done
	Cut      int    `json:"cut,omitempty"`
	TierName string `json:"tier_name,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`

	// failed
	Error string `json:"error,omitempty"`
}

// Replay is what opening an existing journal recovers.
type Replay struct {
	// Records are the decoded records in journal order.
	Records []JournalRecord
	// MaxSeq is the highest job sequence seen, so new ids continue
	// after the dead process's.
	MaxSeq int64
	// Jobs holds each journaled job in its last known state, in
	// first-seen order.
	Jobs []JobInfo
	// Pending are the accepted records with no terminal record, in
	// acceptance order: the jobs to re-run.
	Pending []JournalRecord
}

// Restore continues t's id sequence after MaxSeq and registers every
// replayed job, so GET /jobs/{id} answers for them.
func (r *Replay) Restore(t *JobTable) {
	t.ContinueFrom(r.MaxSeq)
	for _, j := range r.Jobs {
		t.Restore(j)
	}
}

// Journal serializes appends to the underlying checkpoint journal and
// keeps what /healthz and /stats report about it: the time of the last
// durable record, append failures, and the latest scrub. The nil
// *Journal is a disabled WAL: Append drops records and the reports say
// "wal": false.
type Journal struct {
	mu         sync.Mutex
	j          *checkpoint.Journal
	lastAppend time.Time

	errs      atomic.Int64 // appends that failed (serving continued)
	lastErr   atomic.Value // string: the most recent append failure
	lastScrub atomic.Pointer[checkpoint.ScrubStatus]
}

// OpenJournal opens (replaying) or creates the journal at path under
// the given purpose tag. A file with another purpose or version is
// refused.
func OpenJournal(path, purpose string) (*Journal, Replay, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		hdr, _ := json.Marshal(journalHeader{Version: journalVersion, Purpose: purpose})
		j, err := checkpoint.Create(path, hdr)
		if err != nil {
			return nil, Replay{}, err
		}
		return &Journal{j: j, lastAppend: time.Now()}, Replay{}, nil
	}
	j, records, err := checkpoint.Open(path)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("wal: %w", err)
	}
	var hdr journalHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil || hdr.Purpose != purpose {
		j.Close()
		return nil, Replay{}, fmt.Errorf("wal: %s is not a %s journal", path, purpose)
	}
	if hdr.Version != journalVersion {
		j.Close()
		return nil, Replay{}, fmt.Errorf("wal: %s is version %d, this daemon speaks %d", path, hdr.Version, journalVersion)
	}
	return &Journal{j: j, lastAppend: time.Now()}, replay(records[1:]), nil
}

// replay folds the record payloads into job states and pending jobs.
func replay(payloads [][]byte) Replay {
	var r Replay
	index := make(map[string]int)          // job id → position in r.Jobs
	open := make(map[string]JournalRecord) // accepted, no outcome yet
	var order []string                     // accepted ids, in order
	for _, raw := range payloads {
		var rec JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue // frames are CRC-checked; this is schema drift, never a boot blocker
		}
		r.Records = append(r.Records, rec)
		if n := JobSeq(rec.JobID); n > r.MaxSeq {
			r.MaxSeq = n
		}
		i, seen := index[rec.JobID]
		if !seen {
			i = len(r.Jobs)
			index[rec.JobID] = i
			r.Jobs = append(r.Jobs, JobInfo{ID: rec.JobID, Status: "accepted"})
		}
		j := &r.Jobs[i]
		switch rec.Type {
		case "accepted":
			open[rec.JobID] = rec
			order = append(order, rec.JobID)
		case "done":
			j.Status, j.Cut, j.TierName, j.Degraded, j.WallMS, j.Worker = "done", rec.Cut, rec.TierName, rec.Degraded, rec.WallMS, rec.Worker
			delete(open, rec.JobID)
		case "failed":
			j.Status, j.Error = "failed", rec.Error
			delete(open, rec.JobID)
		}
	}
	for _, id := range order {
		if rec, ok := open[id]; ok {
			r.Pending = append(r.Pending, rec)
		}
	}
	return r
}

// Append journals rec durably (fsynced before return). A failure is
// counted and remembered for the health report, so the daemons ignore
// the returned error: they trade durability for availability and keep
// serving, but report themselves degraded, since a crash now would
// lose this work.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		j.mu.Lock()
		if err = j.j.Append(payload); err == nil {
			j.lastAppend = time.Now()
		}
		j.mu.Unlock()
	}
	if err != nil {
		j.errs.Add(1)
		j.lastErr.Store(err.Error())
	}
	return err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.j.Close()
}

// Scrub re-walks the journal's CRC frames read-only and publishes the
// outcome to the health report. It holds the append mutex so the scan
// never observes a frame mid-write — appends are fsynced under the
// same lock, so the on-disk prefix is frame-complete.
func (j *Journal) Scrub() *checkpoint.ScrubStatus {
	j.mu.Lock()
	rep, err := checkpoint.ScrubFile(j.j.Path())
	j.mu.Unlock()
	st := &checkpoint.ScrubStatus{Report: rep, At: time.Now()}
	if err != nil {
		st.Err = err.Error()
	}
	j.lastScrub.Store(st)
	return st
}

// ScrubLoop runs Scrub every interval until stop closes, handing each
// outcome to report when it is non-nil. Scrubbing finds bit rot while
// the process is healthy rather than at the next crash's replay. It
// returns at once for a nil journal or a non-positive interval.
func (j *Journal) ScrubLoop(interval time.Duration, stop <-chan struct{}, report func(*checkpoint.ScrubStatus)) {
	if j == nil || interval <= 0 {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			st := j.Scrub()
			if report != nil {
				report(st)
			}
		}
	}
}

// Health adds the journal's /healthz fields to resp — whether a WAL is
// attached, the age of the last durable record, append failures and the
// latest scrub — and returns the degraded reasons they imply.
func (j *Journal) Health(resp map[string]any) (reasons []string) {
	if j == nil {
		resp["wal"] = false
		return nil
	}
	j.mu.Lock()
	age := time.Since(j.lastAppend)
	j.mu.Unlock()
	resp["wal"] = true
	resp["last_checkpoint_age_ms"] = age.Milliseconds()
	n := j.errs.Load()
	resp["wal_errors"] = n
	if n > 0 {
		last, _ := j.lastErr.Load().(string)
		resp["wal_last_error"] = last
		reasons = append(reasons, fmt.Sprintf("%d WAL append error(s), last: %s", n, last))
	}
	if st := j.scrubStatus(); st != nil {
		resp["wal_scrub"] = st
		if !st.Healthy() {
			reasons = append(reasons, "wal scrub: "+st.Problem())
		}
	}
	return reasons
}

// Stats adds the journal's /stats fields to stats: the append failure
// count and the latest scrub.
func (j *Journal) Stats(stats map[string]any) {
	var n int64
	if j != nil {
		n = j.errs.Load()
	}
	stats["wal_errors"] = n
	if st := j.scrubStatus(); st != nil {
		stats["wal_scrub"] = st
	}
}

// scrubStatus returns a copy of the latest scrub outcome with its age
// filled in, or nil before the first pass.
func (j *Journal) scrubStatus() *checkpoint.ScrubStatus {
	if j == nil {
		return nil
	}
	p := j.lastScrub.Load()
	if p == nil {
		return nil
	}
	st := *p
	st.AgeMS = time.Since(st.At).Milliseconds()
	return &st
}
