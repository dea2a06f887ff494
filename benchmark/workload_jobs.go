package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"revnic/internal/jobsvc"
)

const (
	// jobWorkers is the fork-join width of every job.
	jobWorkers = 2
	// fuzzJobBudget is the schedule budget of a fuzz job.
	fuzzJobBudget = 64
	// jobTimeout bounds one job's submit-to-fetch round trip.
	jobTimeout = 60 * time.Second
)

// jobsWorkload drives a single-node revnicd through its HTTP API.
type jobsWorkload struct {
	p       *plan
	svc     *jobsvc.Service
	srv     *httptest.Server
	client  *http.Client
	dataDir string
	// refs holds each driver's warm-up job result, arena_nodes zeroed:
	// every later job on the driver must return exactly this.
	refs []*jobsvc.JobResult
}

func startJobs(p *plan, dataRoot string) (workload, error) {
	dir, err := os.MkdirTemp(dataRoot, "journal-")
	if err != nil {
		return nil, err
	}
	w := &jobsWorkload{p: p, dataDir: dir}
	if w.svc, err = jobsvc.Open(jobsvc.Config{Pool: 2, DataDir: dir}); err != nil {
		w.close()
		return nil, err
	}
	w.srv = httptest.NewServer(w.svc.Handler())
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   jobTimeout,
	}
	if err := w.warmUp(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// warmUp runs one reverse-engineering job and one fuzz job per driver
// from two clients, fills the harness caches, and records each
// driver's reference result.
func (w *jobsWorkload) warmUp() error {
	n := len(w.p.drivers)
	w.refs = make([]*jobsvc.JobResult, n)
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < 2*n; k += 2 {
				spec := w.reSpec(k % n)
				if k >= n {
					spec = w.fuzzSpec(k%n, -1-k%n)
				}
				r, res := w.run(spec, -1, nil, 0)
				if r.err == nil && k < n {
					ref := *res
					ref.ArenaNodes = 0
					w.refs[k] = &ref
				}
				errs[k] = r.err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *jobsWorkload) reSpec(d int) jobsvc.JobSpec {
	dp := w.p.drivers[d]
	return jobsvc.JobSpec{
		Driver: dp.info.Name, Seed: dp.engineSeed, Workers: jobWorkers, Target: string(dp.target),
	}
}

func (w *jobsWorkload) fuzzSpec(d, k int) jobsvc.JobSpec {
	dp := w.p.drivers[d]
	return jobsvc.JobSpec{
		Fuzz: &jobsvc.FuzzSpec{Device: dp.info.Name, Budget: fuzzJobBudget},
		Seed: w.p.fuzzSeed(k), Workers: jobWorkers, Target: string(dp.target),
	}
}

func (w *jobsWorkload) op(i int, tr *tracer, root int) opResult {
	jo := w.p.jobOpAt(i)
	spec := w.reSpec(jo.driver)
	if jo.fuzz {
		spec = w.fuzzSpec(jo.driver, jo.fuzzIndex)
	}
	r, res := w.run(spec, i, tr, root)
	r.driver = jo.driver
	r.firstCycle = jo.fuzz && jo.fuzzIndex < len(w.p.drivers)
	if r.err != nil || jo.fuzz {
		return r
	}
	got := *res
	got.ArenaNodes = 0
	if !reflect.DeepEqual(&got, w.refs[jo.driver]) {
		r.err = fmt.Errorf("job on %s: result differs from the warm-up's", spec.Driver)
	}
	return r
}

// run is one closed-loop job: POST /jobs, Service.Wait, GET the
// synthesized code, and on every tenth op a /metrics scrape.
func (w *jobsWorkload) run(spec jobsvc.JobSpec, op int, tr *tracer, root int) (r opResult, _ *jobsvc.JobResult) {
	r.fuzz = spec.Fuzz != nil
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	start := time.Now()
	defer func() { r.latency = time.Since(start) }()

	sp := tr.begin("jobsvc.submit", op, root)
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r, nil
	}
	var sub jobsvc.Job
	status, err := w.do(ctx, http.MethodPost, "/jobs", body, &sub)
	tr.end(sp)
	if status == http.StatusTooManyRequests {
		r.rejected = true
	}
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r, nil
	}

	sp = tr.begin("jobsvc.wait", op, root)
	job, err := w.svc.Wait(ctx, sub.ID)
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("wait %s: %w", sub.ID, err)
		return r, nil
	}
	if job.Started != nil && job.Finished != nil {
		tr.record("jobsvc.queue_wait", op, sp, job.Submitted, *job.Started)
		tr.record("jobsvc.run", op, sp, *job.Started, *job.Finished)
	}
	if job.Status != jobsvc.StatusSucceeded || job.Result == nil {
		r.jobFailed = true
		r.err = fmt.Errorf("job %s: status %s: %s", job.ID, job.Status, job.Error)
		return r, nil
	}

	sp = tr.begin("jobsvc.fetch", op, root)
	var code bytes.Buffer
	_, err = w.do(ctx, http.MethodGet, "/jobs/"+job.ID+"/code", nil, &code)
	tr.end(sp)
	switch {
	case err != nil:
		r.err = fmt.Errorf("fetch %s: %w", job.ID, err)
		return r, nil
	case code.String() != job.Result.Code:
		r.err = fmt.Errorf("fetch %s: served code differs from the job result", job.ID)
		return r, nil
	}

	if op%10 == 9 {
		sp = tr.begin("jobsvc.metrics", op, root)
		var m bytes.Buffer
		_, err = w.do(ctx, http.MethodGet, "/metrics", nil, &m)
		tr.end(sp)
		if err == nil && !strings.Contains(m.String(), "revnicd_jobs_submitted_total") {
			err = fmt.Errorf("no job counters in /metrics")
		}
		if err != nil {
			r.err = fmt.Errorf("metrics: %w", err)
			return r, nil
		}
	}

	res := job.Result
	if spec.Fuzz != nil {
		r.counters = fuzzCounters(res.FuzzSchedules, res.FuzzCoverageKeys, res.FuzzCorpus, res.FuzzUnexplored, len(res.Divergences))
		r.err = fuzzFailure(spec.Fuzz.Device, fuzzJobBudget, res.FuzzSchedules, res.Divergences, res.FuzzErrors)
		return r, res
	}
	r.counters = map[string]float64{
		"symexec.executed_blocks":  float64(res.ExecutedBlocks),
		"symexec.forks":            float64(res.Forks),
		"symexec.killed_loops":     float64(res.KilledLoops),
		"symexec.shards_effective": float64(res.ShardsEffective),
		"symexec.shard_collapses":  float64(res.ShardCollapses),
		"ir.translated_blocks":     float64(res.TranslatedBlocks),
		"expr.arena_nodes":         float64(res.ArenaNodes),
		"solver.queries":           float64(res.SolverQueries),
		"solver.cache_hits":        float64(res.SolverCacheHits),
		"solver.model_hits":        float64(res.SolverModelHits),
		"coverage_pct":             100 * res.Coverage,
	}
	return r, res
}

// do sends one request to the service's HTTP front end and decodes a
// 2xx body into out: JSON into a struct, raw bytes into a buffer.
func (w *jobsWorkload) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, err
}

func (w *jobsWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.svc != nil {
		drain(w.svc)
	}
	os.RemoveAll(w.dataDir)
}

func drain(s *jobsvc.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "revnicbench: drain: %v\n", err)
	}
}
