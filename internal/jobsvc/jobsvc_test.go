package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/symexec"
)

// directRun executes the pipeline the way cmd/revnic does — default
// (process-global) arena — for result comparison against service jobs.
func directRun(t *testing.T, driver string, seed int64) *core.Reversed {
	t.Helper()
	info, err := drivers.ByName(driver)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
		Engine:     symexec.Config{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rev
}

func postJob(t *testing.T, url string, spec JobSpec) Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func pollJob(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == StatusSucceeded || j.Status == StatusFailed {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Job{}
}

// TestConcurrentJobsBitIdenticalToDirectRuns is the acceptance
// criterion end to end: N jobs submitted concurrently over HTTP
// complete with results bit-identical to direct cmd/revnic-style runs
// of the same driver/seed — and none of them grow the process-global
// intern table, because every job explored inside its own arena.
func TestConcurrentJobsBitIdenticalToDirectRuns(t *testing.T) {
	specs := []JobSpec{
		{Driver: "RTL8029", Seed: 3},
		{Driver: "SMSC 91C111", Seed: 3},
		{Driver: "RTL8029", Seed: 3}, // duplicate: identical jobs must agree
		{Driver: "AMD PCNet", Seed: 9},
	}
	// Direct reference runs first (default arena): the service must
	// reproduce these bit for bit from private arenas.
	want := map[int]*core.Reversed{}
	for i, spec := range specs {
		want[i] = directRun(t, spec.Driver, spec.Seed)
	}

	globalBefore := expr.InternedNodes()
	svc := New(Config{Pool: len(specs)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			ids[i] = postJob(t, ts.URL, spec).ID
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		j := pollJob(t, ts.URL, ids[i])
		if j.Status != StatusSucceeded {
			t.Fatalf("job %s failed: %s", j.ID, j.Error)
		}
		res, rev := j.Result, want[i]
		exp := rev.Exploration
		if res.Code != rev.Synth.Code {
			t.Errorf("job %d (%s): synthesized code differs from direct run", i, specs[i].Driver)
		}
		if res.Coverage != rev.Coverage() {
			t.Errorf("job %d: coverage %v != direct %v", i, res.Coverage, rev.Coverage())
		}
		if res.CoveredBlocks != exp.Collector.CoveredBlocks() ||
			res.ExecutedBlocks != exp.ExecutedBlocks ||
			res.Forks != exp.ForkCount ||
			res.KilledLoops != exp.KilledLoops ||
			res.SolverQueries != exp.SolverQueries ||
			res.SolverSearch != exp.SolverSearch {
			t.Errorf("job %d: exploration statistics differ from direct run:\n got %+v\nwant covered=%d executed=%d forks=%d killed=%d queries=%d search=%+v",
				i, res, exp.Collector.CoveredBlocks(), exp.ExecutedBlocks, exp.ForkCount, exp.KilledLoops, exp.SolverQueries, exp.SolverSearch)
		}
		if res.ArenaNodes == 0 {
			t.Errorf("job %d: expected a populated private arena", i)
		}
	}
	if after := expr.InternedNodes(); after != globalBefore {
		t.Errorf("service jobs grew the global intern table: %d -> %d (arena isolation broken)", globalBefore, after)
	}
}

// TestJobsNeverShareInternedNodes runs the same computation through
// two job-style arenas via the engine's own memory layer and checks
// the resulting DAGs are structurally equal but fully disjoint — what
// makes dropping one job's arena safe while another job still runs.
func TestJobsNeverShareInternedNodes(t *testing.T) {
	build := func(ar *expr.Arena) *expr.Expr {
		m := symexec.NewMemoryArena(make([]byte, 64), ar)
		// A symbolic hardware byte under concrete neighbors, read back
		// as a 32-bit value: the composite Read expression goes through
		// the arena's Concat/Zext/Trunc constructors.
		m.SetByte(1, ar.S("hw_1", 8))
		v := m.Read(0, 4)
		return ar.Add(v, ar.C(0x1000, 32))
	}
	ar1, ar2 := expr.NewArena(), expr.NewArena()
	e1, e2 := build(ar1), build(ar2)
	if !expr.Equal(e1, e2) {
		t.Fatal("identical computations must be structurally equal across arenas")
	}
	var walk func(a, b *expr.Expr)
	walk = func(a, b *expr.Expr) {
		if a == nil || b == nil {
			return
		}
		// Shared small constants are the one sanctioned overlap.
		if a == b && !(a.Kind == expr.KConst && a.Val < 256) {
			t.Fatalf("arenas share node %v", a)
		}
		walk(a.A, b.A)
		walk(a.B, b.B)
		walk(a.C, b.C)
	}
	walk(e1, e2)
	if ar1.InternedNodes() == 0 || ar2.InternedNodes() == 0 {
		t.Fatal("both arenas should hold nodes")
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Drain(context.Background())
	cases := []JobSpec{
		{}, // neither driver nor program
		{Driver: "RTL8029", Program: &ProgramSpec{Code: []byte{1}}}, // both
		{Driver: "no-such-chip"},
		{Driver: "RTL8029", Strategy: "best-first"},
		{Driver: "RTL8029", Target: "plan9"},
		{Program: &ProgramSpec{}}, // empty code
		// Image past the end of guest RAM: must be rejected up front,
		// not crash a runner mid-pipeline.
		{Program: &ProgramSpec{Base: 1 << 21, Code: []byte{1, 2, 3, 4}}},
		{Program: &ProgramSpec{Base: (1 << 20) - 2, Code: []byte{1, 2, 3, 4}}},
	}
	for i, spec := range cases {
		if _, err := svc.Submit(spec); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}

	// A spec written for the retired solver backends still carries
	// "solver_backend": it must be accepted and run on the core solver,
	// to the same code as a direct run.
	var legacy JobSpec
	if err := json.Unmarshal([]byte(legacySolverSpec), &legacy); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(legacy)
	if err != nil {
		t.Fatalf("legacy solver_backend spec rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusSucceeded {
		t.Fatalf("legacy solver_backend job: %s (%s)", done.Status, done.Error)
	}
	if done.Result.Code != directRun(t, "RTL8029", 3).Synth.Code {
		t.Error("legacy solver_backend job's code differs from a direct run")
	}
}

// legacySolverSpec is a job spec as clients of the retired portfolio
// solver wrote it.
const legacySolverSpec = `{"driver":"RTL8029","seed":3,"solver_backend":"portfolio"}`

func TestDrainRejectsAndFinishes(t *testing.T) {
	svc := New(Config{Pool: 1})
	j, err := svc.Submit(JobSpec{Driver: "RTL8029", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Submit(JobSpec{Driver: "RTL8029"}); err != ErrDraining {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}
	done, _ := svc.Get(j.ID)
	if done.Status != StatusSucceeded {
		t.Fatalf("queued job must finish during drain; got %s (%s)", done.Status, done.Error)
	}
}

func TestHTTPSurface(t *testing.T) {
	svc := New(Config{Pool: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	j := postJob(t, ts.URL, JobSpec{Driver: "RTL8029", Seed: 5, Target: "linux"})
	final := pollJob(t, ts.URL, j.ID)
	if final.Status != StatusSucceeded {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Result.Code == "" || !strings.Contains(final.Result.Code, "linux") {
		t.Error("expected template-instantiated code for target linux")
	}

	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/code")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(code) != final.Result.Code {
		t.Error("/code endpoint must serve the result source verbatim")
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Job
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("list: got %+v", list)
	}
	if list[0].Result != nil && list[0].Result.Code != "" {
		t.Error("listing must elide the synthesized source")
	}

	if resp, _ = http.Get(ts.URL + "/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"revnicd_jobs_submitted_total 1",
		`revnicd_jobs_completed_total{status="succeeded"} 1`,
		"revnicd_arena_nodes_reclaimed_total",
		"revnicd_solver_sat_decisions_total",
		"revnicd_solver_sessions_rebuilt_total",
		"revnicd_job_duration_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if resp, _ = http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestUploadedProgramJob(t *testing.T) {
	// An uploaded image must run through the same pipeline as the
	// bundled inventory entry it was copied from.
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Pool: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	j := postJob(t, ts.URL, JobSpec{
		Program: &ProgramSpec{
			Name: "uploaded-8029",
			Base: info.Program.Base,
			Code: info.Program.Code,
			Shell: ShellSpec{
				VendorID: info.VendorID, DeviceID: info.DeviceID,
				IOBase: 0xC000, IOSize: 0x100, IRQLine: 11,
			},
		},
		Seed: 3,
	})
	final := pollJob(t, ts.URL, j.ID)
	if final.Status != StatusSucceeded {
		t.Fatalf("uploaded job failed: %s", final.Error)
	}
	rev := directRun(t, "RTL8029", 3)
	// Code embeds the driver name; compare with the name swapped in.
	wantCode := strings.ReplaceAll(rev.Synth.Code, "RTL8029", "uploaded-8029")
	if final.Result.Code != wantCode {
		t.Error("uploaded image synthesized code differs from the bundled driver's")
	}
	if final.Result.CoveredBlocks != rev.Exploration.Collector.CoveredBlocks() {
		t.Errorf("uploaded covered %d blocks, bundled %d", final.Result.CoveredBlocks, rev.Exploration.Collector.CoveredBlocks())
	}
	if final.Result.ExecutedBlocks != rev.Exploration.ExecutedBlocks {
		t.Errorf("uploaded executed %d, bundled %d", final.Result.ExecutedBlocks, rev.Exploration.ExecutedBlocks)
	}
}

func TestQueueBound(t *testing.T) {
	// A full queue rejects with ErrBusy instead of blocking the
	// submitter; use an impossible pool=1/queue=1 squeeze with slow
	// jobs to hit it deterministically... jobs here are fast, so pile
	// enough on to overflow the one-slot queue while the runner works.
	svc := New(Config{Pool: 1, QueueDepth: 1})
	sawBusy := false
	for i := 0; i < 50 && !sawBusy; i++ {
		_, err := svc.Submit(JobSpec{Driver: "RTL8029", Seed: int64(i)})
		if err == ErrBusy {
			sawBusy = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawBusy {
		t.Skip("queue never filled (runner outpaced submissions)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
