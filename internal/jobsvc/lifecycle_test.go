package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// longSpec is a job whose budgets would sustain exploration for hours:
// only cancellation or a deadline finishes it.
func longSpec() JobSpec {
	return JobSpec{
		Driver:           "RTL8029",
		Seed:             3,
		PhaseBudget:      1 << 30,
		StagnationBudget: 1 << 30,
		CompleteTarget:   1 << 30,
		MaxStates:        1 << 20,
	}
}

// quickSpec is a job that terminates in milliseconds: a tiny phase
// budget ends exploration almost immediately, but the run is still a
// complete, successful pipeline pass.
func quickSpec(seed int64) JobSpec {
	return JobSpec{Driver: "RTL8029", Seed: seed, PhaseBudget: 50}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.Status == StatusRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func drainWithin(t *testing.T, svc *Service, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestCancelQueuedJob: a job cancelled before a runner picks it up
// becomes terminal immediately and is skipped by the pool.
func TestCancelQueuedJob(t *testing.T) {
	svc := New(Config{Pool: 1})
	a, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, a.ID)
	b, err := svc.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCancelled {
		t.Fatalf("queued job after cancel: %s, want cancelled immediately", got.Status)
	}
	if got.Finished == nil {
		t.Fatal("cancelled queued job has no finish time")
	}
	// Unblock the pool and make sure the husk is skipped, not re-run.
	if _, err := svc.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, svc, 30*time.Second)
	final, _ := svc.Get(b.ID)
	if final.Status != StatusCancelled || final.Result != nil {
		t.Fatalf("cancelled queued job was executed anyway: %+v", final)
	}
}

// TestCancelRunningJob: cancelling mid-exploration winds the job down
// to a partial-but-well-formed result within 2 seconds.
func TestCancelRunningJob(t *testing.T) {
	svc := New(Config{Pool: 1})
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, j.ID)
	// The status flips to running before Explore has executed a block,
	// and a cancel landing in that window leaves nothing to report.
	// longSpec never finishes on its own, so giving exploration time to
	// get under way cannot race the job's end.
	time.Sleep(100 * time.Millisecond)
	cancelledAt := time.Now()
	if _, err := svc.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wind := time.Since(cancelledAt); wind > 2*time.Second {
		t.Errorf("cancel wind-down took %s, want < 2s", wind)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", final.Status)
	}
	if final.Result == nil || final.Result.Stopped != "cancelled" {
		t.Fatalf("expected partial result with stopped=cancelled, got %+v", final.Result)
	}
	if final.Result.ExecutedBlocks == 0 {
		t.Error("partial result shows no execution at all")
	}
	// Cancelling a finished job is a no-op.
	again, err := svc.Cancel(j.ID)
	if err != nil || again.Status != StatusCancelled {
		t.Fatalf("re-cancel: %v %s", err, again.Status)
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestDeadlineMS: a per-job deadline finishes the job as status
// "deadline" with a partial result.
func TestDeadlineMS(t *testing.T) {
	svc := New(Config{Pool: 1})
	spec := longSpec()
	spec.DeadlineMS = 200
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDeadline {
		t.Fatalf("status %s, want deadline", final.Status)
	}
	if final.Result == nil || final.Result.Stopped != "deadline" {
		t.Fatalf("expected partial result with stopped=deadline, got %+v", final.Result)
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestMaxJobWall: the global cap applies even when the spec asks for
// no deadline at all.
func TestMaxJobWall(t *testing.T) {
	svc := New(Config{Pool: 1, MaxJobWall: 200 * time.Millisecond})
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDeadline {
		t.Fatalf("status %s, want deadline from MaxJobWall", final.Status)
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestJournalReplayAfterCrash simulates a SIGKILL: a service with a
// data dir dies with one job mid-run and one still queued. A fresh
// service on the same dir must surface the running job as interrupted
// and re-run the queued one — with its original ID, to a result
// bit-identical to a direct run of the same spec.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{Pool: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc1.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc1, a.ID)
	b, err := svc1.Submit(JobSpec{Driver: "RTL8029", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc1.crash()

	svc2, err := Open(Config{Pool: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requeued, interrupted := svc2.ReplayStats()
	if requeued != 1 || interrupted != 1 {
		t.Fatalf("replay stats: requeued=%d interrupted=%d, want 1/1", requeued, interrupted)
	}
	ja, ok := svc2.Get(a.ID)
	if !ok || ja.Status != StatusInterrupted {
		t.Fatalf("job %s after restart: %+v, want interrupted", a.ID, ja)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	jb, err := svc2.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jb.ID != b.ID {
		t.Fatalf("replayed job changed ID: %s -> %s", b.ID, jb.ID)
	}
	if jb.Status != StatusSucceeded {
		t.Fatalf("replayed job: %s (%s)", jb.Status, jb.Error)
	}
	// Determinism across the crash: the journaled spec re-runs to the
	// same synthesized driver as a direct pipeline run.
	rev := directRun(t, "RTL8029", 3)
	if jb.Result.Code != rev.Synth.Code {
		t.Error("replayed job's synthesized code differs from a direct run")
	}
	// New submissions must not collide with journaled IDs.
	c, err := svc2.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("post-replay submission reused ID %s", c.ID)
	}
	drainWithin(t, svc2, 30*time.Second)
}

// TestJournalReplayLegacySolverSpec: a journal written while specs
// still named a solver backend, a shard factor and the no-incremental
// ablation replays cleanly — the queued job is requeued under its
// original ID and runs on the core solver's sessions and the default
// schedule to the same code as a direct run.
func TestJournalReplayLegacySolverSpec(t *testing.T) {
	dir := t.TempDir()
	rec := `{"t":"submitted","id":"job-7","ts":"2026-01-02T03:04:05Z","spec":` + legacySpec + "}\n"
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := Open(Config{Pool: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainWithin(t, svc, 30*time.Second)
	if requeued, interrupted := svc.ReplayStats(); requeued != 1 || interrupted != 0 {
		t.Fatalf("replay stats: requeued=%d interrupted=%d, want 1/0", requeued, interrupted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := svc.Wait(ctx, "job-7")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusSucceeded {
		t.Fatalf("replayed legacy job: %s (%s)", j.Status, j.Error)
	}
	if j.Result.Code != directRun(t, "RTL8029", 3).Synth.Code {
		t.Error("replayed legacy job's code differs from a direct run")
	}
}

// TestRetentionEviction: the count bound drops the least recently
// accessed finished jobs; reading a job keeps it resident.
func TestRetentionEviction(t *testing.T) {
	svc := New(Config{Pool: 1, RetainCount: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(quickSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Eviction runs on completion: only the 2 newest survive.
	if _, ok := svc.Get(ids[0]); ok {
		t.Errorf("job %s should have been evicted", ids[0])
	}
	if _, ok := svc.Get(ids[1]); ok {
		t.Errorf("job %s should have been evicted", ids[1])
	}
	// Touch the older survivor, then finish one more job: the untouched
	// survivor is now the LRU and must be the one evicted.
	if _, ok := svc.Get(ids[2]); !ok {
		t.Fatalf("job %s missing before touch", ids[2])
	}
	j, err := svc.Submit(quickSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Get(ids[3]); ok {
		t.Errorf("LRU job %s survived past a fresher access to %s", ids[3], ids[2])
	}
	if _, ok := svc.Get(ids[2]); !ok {
		t.Errorf("recently read job %s was evicted", ids[2])
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestPerClientCap: one client's live jobs are bounded; other clients
// and anonymous submissions are unaffected.
func TestPerClientCap(t *testing.T) {
	svc := New(Config{Pool: 1, PerClientCap: 1})
	a, err := svc.SubmitFrom("alice", longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitFrom("alice", quickSpec(1)); err != ErrClientBusy {
		t.Fatalf("second alice submission: %v, want ErrClientBusy", err)
	}
	b, err := svc.SubmitFrom("bob", quickSpec(2))
	if err != nil {
		t.Fatalf("bob blocked by alice's cap: %v", err)
	}
	if _, err := svc.Submit(quickSpec(3)); err != nil {
		t.Fatalf("anonymous submission blocked: %v", err)
	}
	// Once alice's job is terminal she can submit again.
	if _, err := svc.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitFrom("alice", quickSpec(4)); err != nil {
		t.Fatalf("alice still capped after her job finished: %v", err)
	}
	_ = b
	drainWithin(t, svc, 60*time.Second)
}

// TestWaitContextCancelled: an abandoned Wait returns promptly and
// leaves nothing registered in the service.
func TestWaitContextCancelled(t *testing.T) {
	svc := New(Config{Pool: 1})
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Wait(ctx, j.ID); err != context.Canceled {
		t.Fatalf("Wait with dead ctx: %v, want context.Canceled", err)
	}
	if _, err := svc.Wait(context.Background(), "job-999"); err == nil {
		t.Fatal("Wait on unknown job must error")
	}
	if _, err := svc.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestListStableOrder: /jobs output is submission-ordered no matter
// how completions interleave.
func TestListStableOrder(t *testing.T) {
	svc := New(Config{Pool: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(quickSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	list := svc.List()
	if len(list) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
	}
	for i, j := range list {
		if j.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s (stable submit order)", i, j.ID, ids[i])
		}
	}
	drainWithin(t, svc, 30*time.Second)
}

// TestHTTPCancelDeadlineAndLimits drives the new HTTP surface: DELETE
// cancels, oversized bodies get 413, and a saturated service answers
// 429 with a Retry-After hint.
func TestHTTPCancelDeadlineAndLimits(t *testing.T) {
	svc := New(Config{Pool: 1, QueueDepth: 1, MaxBodyBytes: 1024})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Fill the runner and the one queue slot with long jobs.
	a := postJob(t, ts.URL, longSpec())
	waitRunning(t, svc, a.ID)
	b := postJob(t, ts.URL, longSpec())

	// Saturated: the next submission is turned away with 429.
	body, _ := json.Marshal(quickSpec(1))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Oversized body: 413 before any queue slot is considered.
	big, _ := json.Marshal(JobSpec{Program: &ProgramSpec{Base: 0, Code: make([]byte, 4096)}})
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d, want 413", resp.StatusCode)
	}

	// DELETE the queued job, then the running one.
	for _, id := range []string{b.ID, a.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: %d", id, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("DELETEd running job: %s", final.Status)
	}

	// The new counters are exported.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`revnicd_jobs_completed_total{status="cancelled"}`,
		`revnicd_jobs_rejected_total{reason="queue_full"} 1`,
		`revnicd_jobs_rejected_total{reason="body_too_large"} 1`,
		"revnicd_jobs_evicted_total",
		"revnicd_journal_replayed_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	drainWithin(t, svc, 30*time.Second)
}
