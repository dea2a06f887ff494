package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/symexec"
)

// clusterSpec is a job whose exploration produces multiple fork-join
// shard groups, so coordinator dispatch actually has work to fan out.
func clusterSpec() JobSpec {
	return JobSpec{Driver: "RTL8029", Seed: 11, Workers: 2}
}

// sameResult compares two job results field by field except
// ArenaNodes: a coordinator's arena never interns the intermediate
// expressions remote shards allocate on their peers, so that gauge is
// mode-dependent by design. Everything the paper's pipeline actually
// produces — coverage, counters, synthesized code — must match.
func sameResult(t *testing.T, got, want *JobResult, mode string) {
	t.Helper()
	g, w := *got, *want
	g.ArenaNodes, w.ArenaNodes = 0, 0
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: result diverged from single-node run\n got: %s\nwant: %s", mode, gb, wb)
	}
}

// forwardingFaults builds a fault transport whose healthy path is the
// real HTTP shard endpoint — faults are injected at the network layer
// in front of live peers. A forwarded request ends with its attempt's
// context, as over the plain HTTP transport.
func forwardingFaults() *cluster.FaultTransport {
	ht := &cluster.HTTPTransport{Path: "/shards", ProbePath: "/healthz"}
	return cluster.NewFaultTransport(ht.Send)
}

func coordinatorConfig(peers []string, ft *cluster.FaultTransport) Config {
	return Config{
		Pool:        1,
		Coordinator: true,
		Cluster: cluster.Config{
			Peers:          peers,
			Transport:      ft,
			AttemptTimeout: 20 * time.Second,
			MaxAttempts:    3,
			BackoffBase:    time.Millisecond,
			BackoffCap:     10 * time.Millisecond,
			Seed:           7,
			Breaker:        cluster.BreakerConfig{Window: 8, MinSamples: 4, FailureThreshold: 0.5, OpenFor: 50 * time.Millisecond},
		},
	}
}

// TestCoordinatorBitIdenticalUnderFaults is the tentpole acceptance
// criterion: a coordinator run against two live peers — with dropped
// connections, one peer dying mid-job and the other straggling —
// completes and produces the same result as a single-node run of the
// identical spec.
func TestCoordinatorBitIdenticalUnderFaults(t *testing.T) {
	spec := clusterSpec()
	want, err := runSpec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	peer1 := New(Config{Pool: 1, ShardPool: 8})
	ts1 := httptest.NewServer(peer1.Handler())
	defer ts1.Close()
	peer2 := New(Config{Pool: 1, ShardPool: 8})
	ts2 := httptest.NewServer(peer2.Handler())
	defer ts2.Close()

	ft := forwardingFaults()
	// peer1: first request's connection drops, the second one kills
	// the peer for the rest of the job. peer2: one straggling request,
	// healthy afterwards.
	ft.Script(ts1.URL, cluster.Fault{Drop: true}, cluster.Fault{Die: true})
	ft.Script(ts2.URL, cluster.Fault{Latency: 400 * time.Millisecond})

	coord := New(coordinatorConfig([]string{ts1.URL, ts2.URL}, ft))
	defer drainWithin(t, coord, 60*time.Second)
	j, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done, err := coord.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusSucceeded {
		t.Fatalf("coordinator job: %s (%s)", done.Status, done.Error)
	}
	sameResult(t, done.Result, want, "faulted cluster")

	snap, ok := coord.ClusterSnapshot()
	if !ok {
		t.Fatal("coordinator has no cluster snapshot")
	}
	var attempts int64
	for _, p := range snap.Peers {
		attempts += p.Attempts
	}
	if attempts == 0 {
		t.Fatal("no remote attempts recorded: the job never touched the cluster")
	}
}

// TestCoordinatorAllPeersDownFallsBack: with every peer dead from the
// start, the job still succeeds through the guaranteed local
// fallback, the fallback counter records it, and the result is
// unchanged.
func TestCoordinatorAllPeersDownFallsBack(t *testing.T) {
	spec := clusterSpec()
	want, err := runSpec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft := forwardingFaults()
	ft.Kill("http://127.0.0.1:1")
	ft.Kill("http://127.0.0.1:2")
	cfg := coordinatorConfig([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, ft)
	coord := New(cfg)
	defer drainWithin(t, coord, 60*time.Second)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	j, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done, err := coord.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusSucceeded {
		t.Fatalf("job with all peers down: %s (%s)", done.Status, done.Error)
	}
	sameResult(t, done.Result, want, "all-peers-down")
	snap, _ := coord.ClusterSnapshot()
	// The work queue records local execution either as a fallback
	// (remote attempts exhausted) or a local pull (the local capacity
	// slot claimed the shard first); either way it must be observable.
	if snap.Fallbacks+snap.LocalPulls == 0 {
		t.Fatal("no local executions recorded though every peer was dead")
	}
	// The ops runbook watches these through /metrics; make sure the
	// exposition carries them.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyBody(&sb, resp); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"revnicd_cluster_fallbacks_total",
		"revnicd_cluster_attempts_total",
		"revnicd_cluster_breaker_state",
		"revnicd_job_panics_total",
		"revnicd_shards_rejected_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}

func copyBody(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32<<10)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestCoordinatorJournalShardReplay: a coordinator crash mid-job must
// not discard the shards already collected. The journal's shard_done
// records are pre-seeded on replay, the re-run re-dispatches only the
// stripped shard, and the final result is identical.
func TestCoordinatorJournalShardReplay(t *testing.T) {
	dir := t.TempDir()
	spec := clusterSpec()
	cfg := Config{Pool: 1, Coordinator: true, DataDir: dir}
	svc1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done1, err := svc1.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done1.Status != StatusSucceeded {
		t.Fatalf("first run: %s (%s)", done1.Status, done1.Error)
	}
	svc1.crash()

	// Rewrite the journal to what a crash just before completion
	// would have left: drop the finished record, and drop one
	// shard_done record so the resumed run must re-execute that shard.
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	shardDone, dropped := 0, false
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.Contains(line, `"t":"finished"`):
			continue
		case strings.Contains(line, `"t":"shard_done"`):
			shardDone++
			if !dropped {
				dropped = true
				continue
			}
		}
		kept = append(kept, line)
	}
	if shardDone < 2 {
		t.Fatalf("only %d shard_done records journaled; the spec must fan out more", shardDone)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainWithin(t, svc2, 60*time.Second)
	if got := svc2.m.replayedResumed.Load(); got != 1 {
		t.Fatalf("replayedResumed = %d, want 1", got)
	}
	done2, err := svc2.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.Status != StatusSucceeded {
		t.Fatalf("resumed run: %s (%s)", done2.Status, done2.Error)
	}
	sameResult(t, done2.Result, done1.Result, "journal resume")
	if got := svc2.m.shardsReplayed.Load(); got != int64(shardDone-1) {
		t.Errorf("shardsReplayed = %d, want %d (all collected shards reused)", got, shardDone-1)
	}
}

// TestShardEndpointRejectsWhenFull (admission control): a peer whose
// shard pool is saturated answers 503 with a Retry-After estimate —
// the dispatcher's overload signal — and returns to serving once a
// slot frees.
func TestShardEndpointRejectsWhenFull(t *testing.T) {
	svc := New(Config{Pool: 1, ShardPool: 1})
	defer drainWithin(t, svc, 30*time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	svc.shardSem <- struct{}{} // saturate the only slot
	resp, err := http.Post(ts.URL+"/shards", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full shard pool: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if got := svc.m.shardsRejected.Load(); got != 1 {
		t.Fatalf("shardsRejected = %d, want 1", got)
	}
	<-svc.shardSem
	// With capacity back, the same malformed body is a 400 — request
	// validation, not overload.
	resp, err = http.Post(ts.URL+"/shards", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("freed shard pool: status %d, want 400", resp.StatusCode)
	}
}

// TestPipelinePanicBecomesJobFailure (robustness): a panic anywhere
// in the pipeline fails the job — with the panic value and a trimmed
// stack in the failure record, and the panic counter bumped — while
// the daemon keeps serving.
func TestPipelinePanicBecomesJobFailure(t *testing.T) {
	old := runSpecHook
	runSpecHook = func(context.Context, JobSpec, symexec.ShardRunner) (*JobResult, error) {
		panic("boom 42")
	}
	svc := New(Config{Pool: 1})
	defer func() {
		runSpecHook = old
		drainWithin(t, svc, 30*time.Second)
	}()
	j, err := svc.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusFailed {
		t.Fatalf("panicking job: status %s, want failed", done.Status)
	}
	if !strings.Contains(done.Error, "boom 42") {
		t.Errorf("failure record lost the panic value: %q", done.Error)
	}
	if !strings.Contains(done.Error, "goroutine") {
		t.Errorf("failure record has no stack trace: %q", done.Error)
	}
	if lines := strings.Count(done.Error, "\n"); lines > 20 {
		t.Errorf("stack not trimmed: %d lines", lines)
	}
	if got := svc.m.jobPanics.Load(); got != 1 {
		t.Fatalf("jobPanics = %d, want 1", got)
	}
	// The daemon survived: the next job runs normally.
	runSpecHook = old
	k, err := svc.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	kd, err := svc.Wait(ctx, k.ID)
	if err != nil {
		t.Fatal(err)
	}
	if kd.Status != StatusSucceeded {
		t.Fatalf("job after panic: %s (%s)", kd.Status, kd.Error)
	}
}

// TestCoordinatorStealingBitIdentical pins the scheduling/merging
// separation under the work queue: one chronically slow peer forces
// straggler re-dispatch (first-completion-wins), and the result must
// still match a single-node run of the identical spec — including a
// non-default Shards width, which is part of the schedule and must
// agree across modes. The snapshot must show at least one steal, proving
// the rescue path (not just peer-side timeouts) produced the result.
func TestCoordinatorStealingBitIdentical(t *testing.T) {
	spec := clusterSpec()
	spec.Shards = 8
	want, err := runSpec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	fast := New(Config{Pool: 1, ShardPool: 8})
	tsFast := httptest.NewServer(fast.Handler())
	defer tsFast.Close()
	slow := New(Config{Pool: 1, ShardPool: 8})
	tsSlow := httptest.NewServer(slow.Handler())
	defer tsSlow.Close()

	ft := forwardingFaults()
	// Chronic transport latency, not a scripted one-shot: every request
	// to the slow peer crosses a 600ms link, so any shard it claims
	// becomes a straggler well past the 100ms steal threshold below.
	ft.SetLatency(tsSlow.URL, 600*time.Millisecond)

	cfg := coordinatorConfig([]string{tsFast.URL, tsSlow.URL}, ft)
	cfg.Cluster.StealAfterMin = 100 * time.Millisecond
	cfg.Cluster.StealInterval = 5 * time.Millisecond
	// The slow peer still succeeds, so the breaker must stay out of the
	// way — this test is about stealing, not failure accrual.
	cfg.Cluster.Breaker = cluster.BreakerConfig{Window: 8, MinSamples: 100}
	coord := New(cfg)
	defer drainWithin(t, coord, 60*time.Second)

	j, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done, err := coord.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusSucceeded {
		t.Fatalf("coordinator job with straggler: %s (%s)", done.Status, done.Error)
	}
	sameResult(t, done.Result, want, "straggler+steal")
	if done.Result.ShardsEffective < 1 {
		t.Errorf("coordinator result lost ShardsEffective (= %d)", done.Result.ShardsEffective)
	}
	snap, ok := coord.ClusterSnapshot()
	if !ok {
		t.Fatal("coordinator has no cluster snapshot")
	}
	if snap.Steals == 0 {
		t.Errorf("no steals recorded against a 600ms straggler (snapshot: %+v)", snap)
	}
}
