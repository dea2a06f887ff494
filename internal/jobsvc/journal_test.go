package jobsvc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// replayJournal opens the journal bytes as a data dir's WAL and folds
// them into a service with no runners, the way Open does before it
// starts any. It returns the IDs of the requeued jobs, or the open
// error.
func replayJournal(t *testing.T, dir string, data []byte) ([]string, error) {
	t.Helper()
	path := filepath.Join(dir, journalFile)
	if data != nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jl, recs, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	defer jl.close()
	s := &Service{jobs: map[string]*job{}, journal: jl}
	pending := s.replay(recs)
	ids := []string{}
	for _, j := range pending {
		if j.Status != StatusQueued {
			t.Fatalf("requeued job %s has status %s", j.ID, j.Status)
		}
		if s.jobs[j.ID] != j {
			t.Fatalf("requeued job %s is not in the job table", j.ID)
		}
		ids = append(ids, j.ID)
	}
	if len(s.jobs) > len(recs) {
		t.Fatalf("%d records replayed into %d jobs", len(recs), len(s.jobs))
	}
	return ids, nil
}

// FuzzReplayJournal feeds arbitrary bytes to the restart path as
// jobs.journal: openJournal plus Service.replay, without runners. A
// journal is whatever a crash left on disk, so the invariant is jobs
// or an error, never a panic; the scanner's line cap and the input
// size bound what replay can allocate. Replay compacts the journal,
// and replaying the compacted journal must requeue the same jobs.
func FuzzReplayJournal(f *testing.F) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spec := &JobSpec{Driver: "RTL8029", Seed: 1}
	var seed []byte
	for _, r := range []journalRecord{
		{T: recSubmitted, ID: "job-1", TS: ts, Client: "a", Spec: spec},
		{T: recSubmitted, ID: "job-2", TS: ts, Spec: spec},
		{T: recSubmitted, ID: "job-3", TS: ts, Spec: spec},
		{T: recSubmitted, ID: "job-4", TS: ts, Spec: spec},
		{T: recStarted, ID: "job-1", TS: ts},
		{T: recFinished, ID: "job-1", TS: ts, Status: StatusSucceeded},
		{T: recStarted, ID: "job-2", TS: ts},
		{T: recShardDispatched, ID: "job-3", TS: ts, Key: "p1/0"},
		{T: recShardDone, ID: "job-3", TS: ts, Key: "p1/0", Result: json.RawMessage(`{"index":0}`)},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(append(seed, b...), '\n')
	}
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), `{"t":"submitted","id":"job-9"`...)) // torn tail
	f.Add([]byte("{}\n\n{\"t\":\"finished\",\"id\":\"job-77\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		first, err := replayJournal(t, dir, data)
		if err != nil {
			return
		}
		again, err := replayJournal(t, dir, nil)
		if err != nil {
			t.Fatalf("compacted journal does not reopen: %v", err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("replay requeued %v, its compacted journal %v", first, again)
		}
	})
}
