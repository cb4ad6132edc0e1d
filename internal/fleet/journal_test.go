package fleet

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fasthgp/internal/checkpoint"
)

// workerRecordV1 and coordRecordV1 freeze the record layouts hgpartd
// and hgpartcoord wrote before they shared JournalRecord. Both daemons
// must keep writing exactly these bytes, so old and new binaries read
// each other's journals.
type workerRecordV1 struct {
	Type     string `json:"type"`
	JobID    string `json:"job_id"`
	Format   string `json:"format,omitempty"`
	Query    string `json:"query,omitempty"`
	Netlist  string `json:"netlist,omitempty"`
	Cut      int    `json:"cut,omitempty"`
	TierName string `json:"tier_name,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`
	Error    string `json:"error,omitempty"`
}

type coordRecordV1 struct {
	Type        string `json:"type"`
	JobID       string `json:"job_id"`
	Format      string `json:"format,omitempty"`
	Query       string `json:"query,omitempty"`
	Netlist     string `json:"netlist,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Opts        string `json:"opts,omitempty"`
	Cut         int    `json:"cut,omitempty"`
	TierName    string `json:"tier_name,omitempty"`
	Worker      string `json:"worker,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Error       string `json:"error,omitempty"`
}

// writeRaw writes a journal of literal header and record payloads.
func writeRaw(t *testing.T, path, header string, payloads ...string) {
	t.Helper()
	j, err := checkpoint.Create(path, []byte(header))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplaysV1Payloads: journals holding the literal payloads
// both daemons wrote before the shared module replay to the same
// pending jobs, job states and max sequence.
func TestJournalReplaysV1Payloads(t *testing.T) {
	cases := []struct {
		purpose  string
		payloads []string
		maxSeq   int64
		jobs     []JobInfo
		pending  []JournalRecord
	}{
		{
			purpose: PurposeWorker,
			payloads: []string{
				`{"type":"accepted","job_id":"j1","query":"seed=3","netlist":"net n1 a b\n"}`,
				`{"type":"done","job_id":"j1","cut":1,"tier_name":"multilevel","wall_ms":4}`,
				`{"type":"accepted","job_id":"j2","format":"hgr","query":"starts=2","netlist":"1 2\n1 2\n"}`,
				`{"type":"accepted","job_id":"j5","netlist":"frobnicate\n"}`,
				`{"type":"failed","job_id":"j5","error":"unknown directive"}`,
				`{"type":"accepted","job_id":"j3","netlist":"net n a b\n"}`,
				`{"type":"done","job_id":"j4","cut":2,"tier_name":"fm","degraded":true,"wall_ms":9}`,
			},
			maxSeq: 5,
			jobs: []JobInfo{
				{ID: "j1", Status: "done", Cut: 1, TierName: "multilevel", WallMS: 4},
				{ID: "j2", Status: "accepted"},
				{ID: "j5", Status: "failed", Error: "unknown directive"},
				{ID: "j3", Status: "accepted"},
				{ID: "j4", Status: "done", Cut: 2, TierName: "fm", Degraded: true, WallMS: 9},
			},
			pending: []JournalRecord{
				{Type: "accepted", JobID: "j2", Format: "hgr", Query: "starts=2", Netlist: "1 2\n1 2\n"},
				{Type: "accepted", JobID: "j3", Netlist: "net n a b\n"},
			},
		},
		{
			purpose: PurposeCoordinator,
			payloads: []string{
				`{"type":"accepted","job_id":"j1","query":"seed=3","netlist":"net n1 a b\n","fingerprint":17,"opts":"seed=3"}`,
				`{"type":"done","job_id":"j1","cut":1,"tier_name":"multilevel","worker":"w2","wall_ms":4}`,
				`{"type":"accepted","job_id":"j6","netlist":"net n a b\n","fingerprint":18446744073709551615}`,
				`{"type":"accepted","job_id":"j2","netlist":"x","fingerprint":3}`,
				`{"type":"failed","job_id":"j2","error":"all forwards failed"}`,
			},
			maxSeq: 6,
			jobs: []JobInfo{
				{ID: "j1", Status: "done", Cut: 1, TierName: "multilevel", Worker: "w2", WallMS: 4},
				{ID: "j6", Status: "accepted"},
				{ID: "j2", Status: "failed", Error: "all forwards failed"},
			},
			pending: []JournalRecord{
				{Type: "accepted", JobID: "j6", Netlist: "net n a b\n", Fingerprint: 1<<64 - 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.purpose, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			writeRaw(t, path, `{"version":1,"purpose":"`+tc.purpose+`"}`, tc.payloads...)
			j, rep, err := OpenJournal(path, tc.purpose)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(rep.Records) != len(tc.payloads) {
				t.Errorf("replayed %d records, want %d", len(rep.Records), len(tc.payloads))
			}
			if rep.MaxSeq != tc.maxSeq {
				t.Errorf("MaxSeq = %d, want %d", rep.MaxSeq, tc.maxSeq)
			}
			if !reflect.DeepEqual(rep.Jobs, tc.jobs) {
				t.Errorf("jobs = %+v\nwant %+v", rep.Jobs, tc.jobs)
			}
			if !reflect.DeepEqual(rep.Pending, tc.pending) {
				t.Errorf("pending = %+v\nwant %+v", rep.Pending, tc.pending)
			}

			table := NewJobTable()
			rep.Restore(table)
			for _, want := range tc.jobs {
				if got, ok := table.Get(want.ID); !ok || got != want {
					t.Errorf("table[%s] = %+v, want %+v", want.ID, got, want)
				}
			}
			if id := table.Create(); JobSeq(id) != rep.MaxSeq+1 {
				t.Errorf("new id %s does not continue after j%d", id, rep.MaxSeq)
			}
		})
	}
}

// TestJournalWritesV1Bytes: a fresh journal's header and every record
// either daemon appends are byte-identical to the V1 encodings.
func TestJournalWritesV1Bytes(t *testing.T) {
	worker := []workerRecordV1{
		{Type: "accepted", JobID: "j1", Format: "hgr", Query: "seed=3&starts=2", Netlist: "2 3\n1 2\n2 3\n"},
		{Type: "done", JobID: "j1", Cut: 4, TierName: "multilevel", Degraded: true, WallMS: 12},
		{Type: "failed", JobID: "j2", Error: `bad "seed"`},
	}
	coord := []coordRecordV1{
		{Type: "accepted", JobID: "j7", Query: "epsilon=0.1", Netlist: "net n a b\n", Fingerprint: 1<<63 + 5, Opts: "epsilon=0.1"},
		{Type: "done", JobID: "j7", Cut: 3, TierName: "fm", Worker: "w1", WallMS: 8},
		{Type: "done", JobID: "j8", Cut: 3, TierName: "fm", Worker: "w1", Degraded: true},
		{Type: "failed", JobID: "j9", Error: "all forwards failed"},
	}
	var workerRecs, coordRecs []JournalRecord
	var workerWant, coordWant []string
	for _, r := range worker {
		workerRecs = append(workerRecs, JournalRecord{Type: r.Type, JobID: r.JobID, Format: r.Format, Query: r.Query,
			Netlist: r.Netlist, Cut: r.Cut, TierName: r.TierName, Degraded: r.Degraded, WallMS: r.WallMS, Error: r.Error})
		b, _ := json.Marshal(r)
		workerWant = append(workerWant, string(b))
	}
	for _, r := range coord {
		coordRecs = append(coordRecs, JournalRecord(r))
		b, _ := json.Marshal(r)
		coordWant = append(coordWant, string(b))
	}

	for _, tc := range []struct {
		purpose string
		recs    []JournalRecord
		want    []string
	}{
		{PurposeWorker, workerRecs, workerWant},
		{PurposeCoordinator, coordRecs, coordWant},
	} {
		path := filepath.Join(t.TempDir(), "wal")
		j, _, err := OpenJournal(path, tc.purpose)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.recs {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		raw, frames, err := checkpoint.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		raw.Close()
		want := append([]string{`{"version":1,"purpose":"` + tc.purpose + `"}`}, tc.want...)
		if len(frames) != len(want) {
			t.Fatalf("%s: %d frames, want %d", tc.purpose, len(frames), len(want))
		}
		for i := range want {
			if string(frames[i]) != want[i] {
				t.Errorf("%s frame %d:\n got %s\nwant %s", tc.purpose, i, frames[i], want[i])
			}
		}
	}
}

// TestJournalRefusesForeignAndWrongVersion: neither daemon opens the
// other's journal, and a journal of another schema version is refused.
func TestJournalRefusesForeignAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ wrote, open string }{
		{PurposeWorker, PurposeCoordinator},
		{PurposeCoordinator, PurposeWorker},
	} {
		path := filepath.Join(dir, tc.wrote)
		j, _, err := OpenJournal(path, tc.wrote)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, _, err := OpenJournal(path, tc.open); err == nil || !strings.Contains(err.Error(), "is not a "+tc.open) {
			t.Errorf("opening a %s journal as %s: err = %v", tc.wrote, tc.open, err)
		}
		j, _, err = OpenJournal(path, tc.wrote)
		if err != nil {
			t.Fatalf("the refused open damaged the %s journal: %v", tc.wrote, err)
		}
		j.Close()
	}
	path := filepath.Join(dir, "v2")
	writeRaw(t, path, `{"version":2,"purpose":"hgpartd-wal"}`)
	if _, _, err := OpenJournal(path, PurposeWorker); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 journal: err = %v", err)
	}
}
