package jobsvc

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/core"
	"revnic/internal/difffuzz"
	"revnic/internal/template"
)

// TestFuzzJobFindsPlantedBug runs a differential-fuzz job against the
// block device with a planted synthesis bug over the HTTP surface:
// the job must succeed, carry minimized divergences in its result,
// and the divergence count must land on /metrics.
func TestFuzzJobFindsPlantedBug(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	j := postJob(t, srv.URL, JobSpec{
		Seed: 1,
		Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 64, MaxSteps: 10, Plant: "send-port"},
	})
	j = pollJob(t, srv.URL, j.ID)
	if j.Status != StatusSucceeded {
		t.Fatalf("status %s: %s", j.Status, j.Error)
	}
	res := j.Result
	if res == nil || res.Strategy != "difffuzz" {
		t.Fatalf("result %+v", res)
	}
	if len(res.Divergences) == 0 {
		t.Fatalf("planted bug not reported: %d schedules", res.FuzzSchedules)
	}
	d := res.Divergences[0]
	if d.Minimized == nil || len(d.Minimized.Steps) > 10 {
		t.Errorf("divergence not minimized: %+v", d)
	}
	if res.FuzzSchedules == 0 || res.FuzzCoverageKeys == 0 {
		t.Errorf("fuzz stats empty: %+v", res)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"revnicd_fuzz_schedules_total " + itoa(res.FuzzSchedules),
		"revnicd_fuzz_divergences_total " + itoa(len(res.Divergences)),
		"revnicd_fuzz_unexplored_total",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestFuzzJobCleanDriver pins the no-false-positives side: a fuzz job
// on a correctly synthesized driver succeeds with zero divergences.
func TestFuzzJobCleanDriver(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())

	j, err := svc.Submit(JobSpec{Seed: 3, Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 32, MaxSteps: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err = svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusSucceeded {
		t.Fatalf("status %s: %s", j.Status, j.Error)
	}
	if len(j.Result.Divergences) != 0 {
		t.Errorf("false positives: %+v", j.Result.Divergences)
	}
	if len(j.Result.FuzzErrors) != 0 {
		t.Errorf("harness errors: %v", j.Result.FuzzErrors)
	}
}

// TestFuzzSpecValidation exercises the fuzz arm of admission-time
// validation.
func TestFuzzSpecValidation(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"fuzz and driver both set", JobSpec{Driver: "RTL8029", Fuzz: &FuzzSpec{Device: "SBLK100"}}},
		{"unknown device", JobSpec{Fuzz: &FuzzSpec{Device: "NOPE"}}},
		{"unknown plant", JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", Plant: "gremlins"}}},
		{"negative budget", JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", Budget: -1}}},
		{"oversized steps", JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", MaxSteps: 65}}},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The happy path still validates.
	if _, err := svc.Submit(JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 1}}); err != nil {
		t.Errorf("valid fuzz spec rejected: %v", err)
	}
}

// TestFuzzPanicBecomesJobFailure is the fix this PR carries: a fault
// inside the fuzz path must convert to a failed job with context, and
// the runner pool must keep serving jobs afterwards.
func TestFuzzPanicBecomesJobFailure(t *testing.T) {
	orig := fuzzHook
	fuzzHook = func(h *difffuzz.Harness, cfg difffuzz.Config) (*difffuzz.Report, error) {
		panic("minimizer exploded")
	}
	defer func() { fuzzHook = orig }()

	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())

	j, err := svc.Submit(JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err = svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusFailed {
		t.Fatalf("status %s, want failed", j.Status)
	}
	if !strings.Contains(j.Error, "minimizer exploded") || !strings.Contains(j.Error, "panic") {
		t.Errorf("failure record lacks panic context: %q", j.Error)
	}

	// The pool survived: a subsequent (healthy) job completes.
	fuzzHook = orig
	j2, err := svc.Submit(JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 4, MaxSteps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err = svc.Wait(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status != StatusSucceeded {
		t.Fatalf("follow-up job status %s: %s", j2.Status, j2.Error)
	}
}

// TestClusterFuzzJobBitIdentical runs the same fuzz spec single-node
// and coordinator-sharded across two live peers: the reports must be
// byte-identical — schedule sharding, like exploration sharding, may
// only change where work runs, never what it computes.
func TestClusterFuzzJobBitIdentical(t *testing.T) {
	spec := JobSpec{
		Seed:    21,
		Workers: 2,
		Fuzz:    &FuzzSpec{Device: "SBLK100", Budget: 48, MaxSteps: 8, Plant: "send-port"},
	}

	single := New(Config{Pool: 1})
	j, err := single.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	j, err = single.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	single.Drain(context.Background())
	if j.Status != StatusSucceeded {
		t.Fatalf("single-node status %s: %s", j.Status, j.Error)
	}
	want := j.Result

	peer1 := New(Config{Pool: 1, ShardPool: 4})
	defer peer1.Drain(context.Background())
	peer2 := New(Config{Pool: 1, ShardPool: 4})
	defer peer2.Drain(context.Background())
	srv1 := httptest.NewServer(peer1.Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(peer2.Handler())
	defer srv2.Close()

	coord := New(coordinatorConfig([]string{srv1.URL, srv2.URL}, forwardingFaults()))
	defer coord.Drain(context.Background())
	cj, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cj, err = coord.Wait(ctx, cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cj.Status != StatusSucceeded {
		t.Fatalf("coordinator status %s: %s", cj.Status, cj.Error)
	}

	gb, _ := json.Marshal(cj.Result)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("clustered fuzz result diverged from single-node run\n got: %s\nwant: %s", gb, wb)
	}
	if peer1.m.shardsServed.Load()+peer2.m.shardsServed.Load() == 0 {
		t.Error("no fuzz shards actually served by peers")
	}
}

// TestFuzzJobCancellation pins cooperative cancellation: a running
// fuzz job winds down with a partial result and status cancelled.
func TestFuzzJobCancellation(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())

	// A huge budget so the job is still running when cancel lands.
	j, err := svc.Submit(JobSpec{Seed: 2, Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, _ := svc.Get(j.ID)
		if snap.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", snap.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := svc.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err = svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", j.Status)
	}
	if j.Result == nil || j.Result.Stopped != "cancelled" {
		t.Errorf("partial result missing or unmarked: %+v", j.Result)
	}
}

// TestFuzzOSDefault pins that fuzz jobs resolve the template OS from
// Target and default to Windows.
func TestFuzzOSDefault(t *testing.T) {
	if got := fuzzOS(JobSpec{Fuzz: &FuzzSpec{Device: "SBLK100"}}); got != template.Windows {
		t.Errorf("default OS %q", got)
	}
	if got := fuzzOS(JobSpec{Target: "linux", Fuzz: &FuzzSpec{Device: "SBLK100"}}); got != template.Linux {
		t.Errorf("target OS %q", got)
	}
}

// TestFuzzShardRejectsHostileSchedules posts fuzz shards a peer must
// refuse with 400 before running anything — a query that would make
// both drivers allocate 4 GB, a negative frame size, an unknown op,
// an over-cap set payload, an over-long schedule — and runs one valid shard whose spec asks
// for far more workers than it has schedules.
func TestFuzzShardRejectsHostileSchedules(t *testing.T) {
	svc := New(Config{Pool: 1, ShardPool: 1})
	defer drainWithin(t, svc, 30*time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(workers int, steps string) (int, []byte) {
		t.Helper()
		body := fmt.Sprintf(`{"spec":{"workers":%d,"fuzz":{"device":"SBLK100"}},`+
			`"fuzz":{"round":0,"schedules":[{"id":1,"steps":[%s]}]}}`, workers, steps)
		resp, err := http.Post(ts.URL+"/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	for name, steps := range map[string]string{
		"huge query": `{"op":"query","oid":16842242,"val":4000000000}`,
		"neg size":   `{"op":"send","size":-1}`,
		"bogus op":   `{"op":"reboot"}`,
		"big data":   `{"op":"set","oid":16843011,"data":"` + base64.StdEncoding.EncodeToString(make([]byte, core.MaxSetData+1)) + `"}`,
		"too long":   strings.Repeat(`{"op":"pump"},`, difffuzz.MaxScheduleSteps) + `{"op":"pump"}`,
	} {
		if code, out := post(2, steps); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, out)
		}
	}
	if got := svc.m.shardsServed.Load(); got != 0 {
		t.Fatalf("rejected shards counted as served: %d", got)
	}

	code, out := post(1<<16, `{"op":"send","size":64},{"op":"pump"}`)
	if code != http.StatusOK {
		t.Fatalf("valid shard: status %d (%s)", code, out)
	}
	var outs []difffuzz.Outcome
	if err := json.Unmarshal(out, &outs); err != nil || len(outs) != 1 {
		t.Fatalf("valid shard returned %s (%v)", out, err)
	}
	if outs[0].Err != "" || outs[0].Divergence != nil {
		t.Errorf("valid shard outcome %+v", outs[0])
	}
}

// TestFuzzOutcomesRejectHostileKeys feeds the coordinator's two
// decoders of foreign fuzz outcomes, a peer's response and a shard
// result replayed from the journal, coverage keys it must not trust:
// about a million keys is an error without allocating them, keys out
// of order an error too, and a peer response or a replayed shard with
// either is re-executed, never merged.
func TestFuzzOutcomesRejectHostileKeys(t *testing.T) {
	var b strings.Builder
	b.WriteString(`[{"schedule_id":1,"steps":1,"cov_keys":[`)
	for i := range 1 << 20 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i)
	}
	b.WriteString(`]}]`)
	hostile := []byte(b.String())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := acceptFuzzOutcomes(1)(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a peer outcome with 1M coverage keys was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting %d bytes of keys allocated %d bytes", len(hostile), grew)
	}
	if err := acceptFuzzOutcomes(1)([]byte(`[{"schedule_id":1,"steps":1,"cov_keys":[7,3]}]`)); err == nil {
		t.Error("a peer outcome with decreasing coverage keys was accepted")
	}

	// The same bodies reach the coordinator's dispatch through a peer
	// that answers with peerBody and through the journal replay cache.
	// The work queue may also run a shard locally before the peer is
	// asked, but whichever way it settles, only want may be merged.
	var peerBody []byte
	ft := cluster.NewFaultTransport(func(context.Context, string, []byte) (*cluster.Response, error) {
		return &cluster.Response{Status: http.StatusOK, Body: peerBody}, nil
	})
	svc := New(coordinatorConfig([]string{"peer"}, ft))
	defer svc.Drain(context.Background())
	h, err := svc.fuzzHarnesses.get("SBLK100", template.Windows, "")
	if err != nil {
		t.Fatal(err)
	}
	var batch []difffuzz.Schedule
	for i := range fuzzShardGroup {
		batch = append(batch, difffuzz.Schedule{ID: uint64(i + 1), Steps: []difffuzz.Step{{Op: "send", Size: 60 + i}}})
	}
	want, _ := json.Marshal(difffuzz.RunBatch(h, batch, 1))
	unordered := bytes.Replace(want, []byte(`"cov_keys":[`), []byte(`"cov_keys":[18446744073709551615,`), 1)
	for _, tc := range []struct {
		cached, peer []byte
		replayed     int64
	}{
		{hostile, want, 0}, {unordered, want, 0}, {want, nil, 1},
		{nil, hostile, 0}, {nil, unordered, 0},
	} {
		svc.m.shardsReplayed.Store(0)
		peerBody = tc.peer
		j := &job{Job: Job{ID: "job-1", Spec: JobSpec{Workers: 1, Fuzz: &FuzzSpec{Device: "SBLK100"}}}}
		if tc.cached != nil {
			j.shardCache = map[string]json.RawMessage{fuzzShardKey(0, 0): tc.cached}
		}
		outs, err := svc.fuzzBatchRunner(context.Background(), j, h)(0, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(outs); !bytes.Equal(got, want) {
			t.Errorf("outcomes differ from a local run:\n got %s\nwant %s", got, want)
		}
		if got := svc.m.shardsReplayed.Load(); got != tc.replayed {
			t.Errorf("%d shards replayed from the cache, want %d", got, tc.replayed)
		}
	}
}
