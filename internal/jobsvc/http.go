package jobsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"revnic/internal/cluster"
)

// This file is the service's HTTP surface: a JSON job API plus a
// Prometheus-text metrics endpoint, all on net/http — the service has
// no dependencies outside the standard library.
//
//	POST   /jobs            submit a JobSpec, returns the Job snapshot
//	GET    /jobs            list all jobs (results elided)
//	GET    /jobs/{id}       one job, full result included
//	DELETE /jobs/{id}       cancel a queued or running job
//	GET    /jobs/{id}/code  the synthesized C source, text/plain
//	GET    /metrics         Prometheus text exposition
//	GET    /healthz         200 while serving, 503 while draining
//
// Admission control: a full queue or a client over its concurrent-job
// cap gets 429 with a Retry-After estimate; bodies over the configured
// limit get 413; journal failures get 503.

// metrics is the service-level counter set, exported in Prometheus
// text format. Plain atomics: the service deliberately has no
// dependency on a metrics library.
type metrics struct {
	submitted           atomic.Int64
	succeeded           atomic.Int64
	failed              atomic.Int64
	cancelled           atomic.Int64
	deadlineHits        atomic.Int64
	running             atomic.Int64
	evicted             atomic.Int64
	replayed            atomic.Int64
	replayedInterrupted atomic.Int64
	rejectedQueueFull   atomic.Int64
	rejectedClientCap   atomic.Int64
	rejectedDraining    atomic.Int64
	rejectedBody        atomic.Int64
	solverQueries       atomic.Int64
	satDecisions        atomic.Int64
	satConflicts        atomic.Int64
	sessionsExtended    atomic.Int64
	sessionsRebuilt     atomic.Int64
	executedBlocks      atomic.Int64
	arenaNodesReclaimed atomic.Int64
	jobPanics           atomic.Int64
	shardsServed        atomic.Int64
	shardsRejected      atomic.Int64
	shardsReplayed      atomic.Int64
	replayedResumed     atomic.Int64
	shardCollapses      atomic.Int64
	fuzzSchedules       atomic.Int64
	fuzzDivergences     atomic.Int64
	fuzzUnexplored      atomic.Int64
	durationSeconds     lockedFloat
	shardsEffective     lockedFloat
}

// lockedFloat is a mutex-guarded float accumulator (duration sums are
// the one non-integer metric).
type lockedFloat struct {
	mu  sync.Mutex
	sum float64
	n   int64
}

func (f *lockedFloat) add(v float64) {
	f.mu.Lock()
	f.sum += v
	f.n++
	f.mu.Unlock()
}

func (f *lockedFloat) read() (float64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sum, f.n
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/code", s.handleCode)
	mux.HandleFunc("POST /shards", s.handleShard)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var spec JobSpec
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.m.rejectedBody.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	j, err := s.SubmitFrom(clientKey(r), spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBusy) || errors.Is(err, ErrClientBusy):
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j)
	}
}

// clientKey is the admission-control identity of a request: the
// connection's source host (port stripped, so one client's concurrent
// connections count together).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds estimates when a rejected submitter should come
// back: the mean observed job duration, clamped to [1, 60] seconds.
// An estimate, not a promise — but far better backpressure than a
// constant for jobs that span milliseconds to minutes.
func (s *Service) retryAfterSeconds() int {
	sum, n := s.m.durationSeconds.read()
	if n == 0 {
		return 1
	}
	sec := int(sum / float64(n))
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return sec
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List()
	// Elide the potentially large synthesized source from the listing;
	// it stays available per job.
	for i := range jobs {
		if jobs[i].Result != nil {
			res := *jobs[i].Result
			res.Code = ""
			jobs[i].Result = &res
		}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleCode(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if j.Result == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", j.ID, j.Status))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, j.Result.Code)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := 0
	for _, id := range s.order {
		if s.jobs[id].Status == StatusQueued {
			queued++
		}
	}
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	sum, n := s.m.durationSeconds.read()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("revnicd_jobs_submitted_total", "Jobs accepted into the queue.", s.m.submitted.Load())
	fmt.Fprintf(w, "# HELP revnicd_jobs_completed_total Jobs finished, by outcome.\n# TYPE revnicd_jobs_completed_total counter\n")
	fmt.Fprintf(w, "revnicd_jobs_completed_total{status=\"succeeded\"} %d\n", s.m.succeeded.Load())
	fmt.Fprintf(w, "revnicd_jobs_completed_total{status=\"failed\"} %d\n", s.m.failed.Load())
	fmt.Fprintf(w, "revnicd_jobs_completed_total{status=\"cancelled\"} %d\n", s.m.cancelled.Load())
	fmt.Fprintf(w, "revnicd_jobs_completed_total{status=\"deadline\"} %d\n", s.m.deadlineHits.Load())
	fmt.Fprintf(w, "# HELP revnicd_jobs_rejected_total Submissions refused by admission control, by reason.\n# TYPE revnicd_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "revnicd_jobs_rejected_total{reason=\"queue_full\"} %d\n", s.m.rejectedQueueFull.Load())
	fmt.Fprintf(w, "revnicd_jobs_rejected_total{reason=\"client_cap\"} %d\n", s.m.rejectedClientCap.Load())
	fmt.Fprintf(w, "revnicd_jobs_rejected_total{reason=\"draining\"} %d\n", s.m.rejectedDraining.Load())
	fmt.Fprintf(w, "revnicd_jobs_rejected_total{reason=\"body_too_large\"} %d\n", s.m.rejectedBody.Load())
	counter("revnicd_jobs_evicted_total", "Finished jobs dropped by the retention policy.", s.m.evicted.Load())
	counter("revnicd_journal_replayed_total", "Journaled jobs requeued on startup.", s.m.replayed.Load())
	counter("revnicd_journal_interrupted_total", "Journaled jobs found mid-run on startup.", s.m.replayedInterrupted.Load())
	gauge("revnicd_jobs_running", "Jobs currently executing.", s.m.running.Load())
	gauge("revnicd_jobs_queued", "Jobs accepted but not yet started.", int64(queued))
	gauge("revnicd_draining", "1 while graceful drain is in progress.", int64(draining))
	fmt.Fprintf(w, "# HELP revnicd_job_duration_seconds Wall-clock job execution time.\n# TYPE revnicd_job_duration_seconds summary\n")
	fmt.Fprintf(w, "revnicd_job_duration_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "revnicd_job_duration_seconds_count %d\n", n)
	counter("revnicd_solver_queries_total", "Constraint-solver queries across completed jobs.", s.m.solverQueries.Load())
	counter("revnicd_solver_sat_decisions_total", "SAT branch decisions across completed jobs.", s.m.satDecisions.Load())
	counter("revnicd_solver_sat_conflicts_total", "SAT conflicts across completed jobs.", s.m.satConflicts.Load())
	counter("revnicd_solver_sessions_extended_total", "Solver queries decided on a running solver session, across completed jobs.", s.m.sessionsExtended.Load())
	counter("revnicd_solver_sessions_rebuilt_total", "Solver sessions created (one per solver that decided a query; sessions are never rebuilt), across completed jobs.", s.m.sessionsRebuilt.Load())
	counter("revnicd_executed_blocks_total", "Translation blocks executed across completed jobs.", s.m.executedBlocks.Load())
	counter("revnicd_arena_nodes_reclaimed_total", "Interned expression nodes reclaimed with finished job arenas.", s.m.arenaNodesReclaimed.Load())
	counter("revnicd_job_panics_total", "Pipeline panics converted to job failures.", s.m.jobPanics.Load())
	counter("revnicd_shards_served_total", "Remote shard tasks executed for coordinators.", s.m.shardsServed.Load())
	counter("revnicd_shards_rejected_total", "Remote shard tasks refused with 503 (capacity).", s.m.shardsRejected.Load())
	counter("revnicd_shards_replayed_total", "Shard results reused from the journal after a coordinator restart.", s.m.shardsReplayed.Load())
	counter("revnicd_journal_resumed_total", "Journaled coordinator jobs requeued with collected shards pre-seeded.", s.m.replayedResumed.Load())
	counter("revnicd_shard_collapses_total", "Phases configured to fan out that drained serially (lost parallelism).", s.m.shardCollapses.Load())
	counter("revnicd_fuzz_schedules_total", "Differential-fuzz schedules executed across completed fuzz jobs.", s.m.fuzzSchedules.Load())
	counter("revnicd_fuzz_divergences_total", "Behavioral divergences found by differential fuzzing.", s.m.fuzzDivergences.Load())
	counter("revnicd_fuzz_unexplored_total", "Fuzz schedules that drove the synthesized driver into unexplored code.", s.m.fuzzUnexplored.Load())
	effSum, effN := s.m.shardsEffective.read()
	fmt.Fprintf(w, "# HELP revnicd_shards_effective Fan-out width (the job's Shards), summed over completed jobs that fanned out.\n# TYPE revnicd_shards_effective summary\n")
	fmt.Fprintf(w, "revnicd_shards_effective_sum %g\n", effSum)
	fmt.Fprintf(w, "revnicd_shards_effective_count %d\n", effN)

	if snap, ok := s.ClusterSnapshot(); ok {
		counter("revnicd_cluster_fallbacks_total", "Shards executed by the guaranteed local fallback.", snap.Fallbacks)
		peerCounter := func(name, help string, value func(cluster.PeerSnapshot) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, p := range snap.Peers {
				fmt.Fprintf(w, "%s{peer=%q} %d\n", name, p.Peer, value(p))
			}
		}
		peerCounter("revnicd_cluster_attempts_total", "Remote shard attempts, per peer.",
			func(p cluster.PeerSnapshot) int64 { return p.Attempts })
		peerCounter("revnicd_cluster_retries_total", "Shard retry attempts (remote attempts after an earlier one failed), per peer.",
			func(p cluster.PeerSnapshot) int64 { return p.Retries })
		peerCounter("revnicd_cluster_failures_total", "Failed shard attempts, per peer.",
			func(p cluster.PeerSnapshot) int64 { return p.Failures })
		peerCounter("revnicd_cluster_overloads_total", "Shard attempts answered 503 (peer full), per peer.",
			func(p cluster.PeerSnapshot) int64 { return p.Overloads })
		fmt.Fprintf(w, "# HELP revnicd_cluster_breaker_state Per-peer circuit breaker: 0 closed, 1 half-open, 2 open.\n# TYPE revnicd_cluster_breaker_state gauge\n")
		for _, p := range snap.Peers {
			v := 0
			switch p.Breaker {
			case "half-open":
				v = 1
			case "open":
				v = 2
			}
			fmt.Fprintf(w, "revnicd_cluster_breaker_state{peer=%q} %d\n", p.Peer, v)
		}
		counter("revnicd_cluster_steals_total", "Straggler shards re-dispatched onto another peer by the work queue.", snap.Steals)
		counter("revnicd_cluster_local_pulls_total", "Shards the local capacity slot pulled from the work queue.", snap.LocalPulls)
		fmt.Fprintf(w, "# HELP revnicd_shard_wall_seconds Wall time of winning shard attempts.\n# TYPE revnicd_shard_wall_seconds summary\n")
		fmt.Fprintf(w, "revnicd_shard_wall_seconds_sum %g\n", snap.ShardWallSum)
		fmt.Fprintf(w, "revnicd_shard_wall_seconds_count %d\n", snap.ShardWallCount)
		fmt.Fprintf(w, "# HELP revnicd_shard_queue_wait_seconds Time shards spent enqueued before their first claim.\n# TYPE revnicd_shard_queue_wait_seconds summary\n")
		fmt.Fprintf(w, "revnicd_shard_queue_wait_seconds_sum %g\n", snap.QueueWaitSum)
		fmt.Fprintf(w, "revnicd_shard_queue_wait_seconds_count %d\n", snap.QueueWaitCount)
		fmt.Fprintf(w, "# HELP revnicd_cluster_peer_ewma_ms Per-peer EWMA latency estimate of successful shard attempts, milliseconds.\n# TYPE revnicd_cluster_peer_ewma_ms gauge\n")
		for _, p := range snap.Peers {
			fmt.Fprintf(w, "revnicd_cluster_peer_ewma_ms{peer=%q} %g\n", p.Peer, p.EwmaMS)
		}
		fmt.Fprintf(w, "# HELP revnicd_cluster_peer_inflight Shard attempts currently in flight, per peer.\n# TYPE revnicd_cluster_peer_inflight gauge\n")
		for _, p := range snap.Peers {
			fmt.Fprintf(w, "revnicd_cluster_peer_inflight{peer=%q} %d\n", p.Peer, p.Inflight)
		}
	}
}
