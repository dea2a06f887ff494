// Package jobsvc turns the one-shot reverse-engineering pipeline into
// a resident service: cmd/revnicd accepts HTTP/JSON job requests
// (driver name or uploaded program image, searcher, shard/worker
// fan-out, exploration budgets), schedules them on a bounded pool of
// job runners that reuse the fork-join exploration in
// internal/symexec, and serves job status, results and
// Prometheus-style metrics.
//
// Every job runs inside its own expr.Arena: the engine, its worker
// children and its solvers intern every expression in the job's
// arena, so when the job's result summary has been extracted the
// whole arena — millions of interned nodes for a deep exploration —
// becomes garbage at once. Process-global intern state never grows
// with job traffic, which is what makes the service viable as a
// long-running daemon (the ROADMAP's eviction open item, resolved by
// construction). Results are bit-identical to the cmd/revnic CLI for
// the same driver/searcher/shard settings, because expression
// canonicalization is structural and therefore arena-independent. A
// job's seed randomizes only differential-fuzzing schedules; an
// exploration has no random choice left to seed.
package jobsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/core"
	"revnic/internal/difffuzz"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/solver"
	"revnic/internal/symexec"
	"revnic/internal/template"
)

// Status is a job's lifecycle phase.
type Status string

// Job lifecycle phases. Jobs move queued → running → one of the
// terminal states. A queued job may be cancelled before it starts;
// a running job winds down to cancelled or deadline with a partial
// result when stopped; interrupted marks jobs a daemon restart found
// mid-run in the journal (their in-memory progress is gone).
const (
	StatusQueued      Status = "queued"
	StatusRunning     Status = "running"
	StatusSucceeded   Status = "succeeded"
	StatusFailed      Status = "failed"
	StatusCancelled   Status = "cancelled"
	StatusDeadline    Status = "deadline"
	StatusInterrupted Status = "interrupted"
)

// Terminal reports whether a job in this status will never run again.
func (st Status) Terminal() bool {
	switch st {
	case StatusSucceeded, StatusFailed, StatusCancelled, StatusDeadline, StatusInterrupted:
		return true
	}
	return false
}

// ShellSpec carries the shell-device PCI parameters for uploaded
// programs ("the vendor and product identifier of the device whose
// driver is being reverse engineered", §3.4). Bundled drivers derive
// theirs from the device inventory.
type ShellSpec struct {
	VendorID uint16 `json:"vendor_id"`
	DeviceID uint16 `json:"device_id"`
	IOBase   uint32 `json:"io_base,omitempty"`
	IOSize   uint32 `json:"io_size,omitempty"`
	IRQLine  uint8  `json:"irq_line,omitempty"`
}

// ProgramSpec is an uploaded driver binary: the same two inputs the
// real tool gets (load address and image bytes), plus the shell
// parameters.
type ProgramSpec struct {
	Name  string    `json:"name,omitempty"`
	Base  uint32    `json:"base"`
	Code  []byte    `json:"code"` // base64 in JSON
	Shell ShellSpec `json:"shell"`
}

// JobSpec is one request. Exactly one of Driver (a bundled binary),
// Program (an uploaded image) or Fuzz (a differential-fuzzing run)
// must be set; zero values elsewhere select the engine defaults.
// Unknown JSON fields are ignored, so specs (and journals) that still
// carry retired fields are accepted: "solver_backend" (every job runs
// on the core solver), "shard_factor" (every phase fans out to exactly
// Shards groups) and "disable_incremental_solver" (branch queries
// always run on incremental solver sessions).
type JobSpec struct {
	Driver  string       `json:"driver,omitempty"`
	Program *ProgramSpec `json:"program,omitempty"`
	// Fuzz selects the differential-fuzzing job kind: the named
	// corpus driver is reverse engineered and the synthesized driver
	// is executed against the original on seeded schedules (see
	// internal/difffuzz). Seed, Workers, Target and DeadlineMS apply
	// as usual; exploration-budget fields are ignored.
	Fuzz *FuzzSpec `json:"fuzz,omitempty"`
	// Strategy names the path-selection searcher ("coverage", "dfs",
	// "bfs"); empty selects the coverage-guided default.
	Strategy string `json:"strategy,omitempty"`
	// Target optionally names a template OS ("windows", "linux",
	// "ucos-ii", "kitos"); when set, Code in the result is the fully
	// instantiated driver instead of the bare synthesized functions.
	Target string `json:"target,omitempty"`
	// Seed randomizes a fuzz job's schedule stream; exploration jobs
	// accept and ignore it, because the engine's choices are
	// canonical.
	Seed int64 `json:"seed,omitempty"`
	// Workers/Shards configure the fork-join exploration exactly as
	// cmd/revnic's flags do; results are identical for any Workers.
	Workers int `json:"workers,omitempty"`
	Shards  int `json:"shards,omitempty"`
	// Exploration budgets (symexec.Config fields; 0 = default).
	MaxStates        int `json:"max_states,omitempty"`
	PhaseBudget      int `json:"phase_budget,omitempty"`
	StagnationBudget int `json:"stagnation_budget,omitempty"`
	CompleteTarget   int `json:"complete_target,omitempty"`
	PollThreshold    int `json:"poll_threshold,omitempty"`
	// DeadlineMS bounds the job's execution wall clock in
	// milliseconds, measured from the moment the job starts running.
	// A job past its deadline winds down cooperatively and finishes as
	// status "deadline" with a partial result. The service's global
	// MaxJobWall cap applies on top — the tighter bound wins. 0 means
	// no per-job deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// JobResult is the summary extracted from a finished pipeline run. It
// deliberately holds no expression or trace references, so the job's
// arena (and every state, solver and collector of the run) is
// reclaimable the moment the pipeline returns.
type JobResult struct {
	Driver            string  `json:"driver"`
	Strategy          string  `json:"strategy"`
	Coverage          float64 `json:"coverage"`
	CoveredBlocks     int     `json:"covered_blocks"`
	GroundTruthBlocks int     `json:"ground_truth_blocks"`
	ExecutedBlocks    int64   `json:"executed_blocks"`
	TranslatedBlocks  int64   `json:"translated_blocks"`
	Forks             int64   `json:"forks"`
	KilledLoops       int64   `json:"killed_loops"`
	SolverQueries     int64   `json:"solver_queries"`
	SolverCacheHits   int64   `json:"solver_cache_hits"`
	SolverModelHits   int64   `json:"solver_model_hits"`
	// SolverSearch is the SAT-level work behind the queries: decisions,
	// conflicts and incremental session reuse. Deterministic, like the
	// query counters.
	SolverSearch solver.SearchStats `json:"solver_search"`
	Funcs        int                `json:"funcs"`
	// ShardsEffective is the fan-out width: Shards when any phase
	// fanned out, 0 when none did; ShardCollapses counts
	// phases that were configured to fan out but drained serially —
	// together they surface silent parallelism collapse.
	ShardsEffective int   `json:"shards_effective,omitempty"`
	ShardCollapses  int64 `json:"shard_collapses,omitempty"`
	// ArenaNodes is how many canonical expression nodes the job's
	// arena held at completion — all reclaimed with the job.
	ArenaNodes int `json:"arena_nodes"`
	// Code is the synthesized C source (template-instantiated when
	// the spec named a target OS).
	Code string `json:"code,omitempty"`
	// Stopped is "cancelled" or "deadline" when exploration was wound
	// down before the exercise script finished: the result is then
	// partial — it holds everything the completed phases produced —
	// but structurally complete. Empty for a full run.
	Stopped string `json:"stopped,omitempty"`

	// Fuzz-job fields (Strategy is "difffuzz" for these).
	FuzzSchedules int `json:"fuzz_schedules,omitempty"`
	// FuzzCoverageKeys is difffuzz.Report.CoverageKeys: the distinct
	// recovered-block edges and hardware access pairs the run covered.
	FuzzCoverageKeys int `json:"fuzz_coverage_keys,omitempty"`
	FuzzCorpus       int `json:"fuzz_corpus,omitempty"`
	FuzzUnexplored   int `json:"fuzz_unexplored,omitempty"`
	// Divergences are the confirmed behavioral differences between
	// the original and synthesized drivers, minimized reproducers
	// included.
	Divergences []difffuzz.Divergence `json:"divergences,omitempty"`
	// FuzzErrors are harness-level schedule failures (recovered
	// panics included) — reported, never fatal to the job.
	FuzzErrors []string `json:"fuzz_errors,omitempty"`
}

// Job is one tracked request. Fields are snapshots: the service hands
// out copies, never its internal pointers.
type Job struct {
	ID        string     `json:"id"`
	Spec      JobSpec    `json:"spec"`
	Status    Status     `json:"status"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Config parameterizes a Service.
type Config struct {
	// Pool is the number of jobs run concurrently; 0 selects 2. Each
	// job additionally fans out per its Workers setting, so the pool
	// bounds jobs, not goroutines.
	Pool int
	// QueueDepth bounds the backlog of accepted-but-unstarted jobs;
	// submissions beyond it are rejected with ErrBusy (HTTP 429 with
	// Retry-After) instead of blocking the submitter. 0 selects 64.
	QueueDepth int
	// MaxJobWall caps every job's execution wall clock; jobs past it
	// finish as status "deadline" with a partial result. A per-job
	// deadline_ms tightens (never loosens) the cap. 0 means no global
	// cap.
	MaxJobWall time.Duration
	// PerClientCap bounds how many live (queued or running) jobs one
	// client may hold; submissions beyond it are rejected with
	// ErrClientBusy. 0 disables the cap.
	PerClientCap int
	// RetainCount bounds how many finished jobs the index keeps;
	// beyond it the least recently accessed finished jobs are evicted
	// (their snapshots and results become 404s). 0 selects 256;
	// negative disables the count bound.
	RetainCount int
	// RetainAge evicts finished jobs not accessed for this long,
	// checked on every submission and completion. 0 disables the age
	// bound.
	RetainAge time.Duration
	// MaxBodyBytes caps POST /jobs request bodies (uploaded images
	// are base64 inside the JSON body); larger requests get 413.
	// 0 selects 8 MiB.
	MaxBodyBytes int64
	// DataDir, when non-empty, enables the durable job journal: an
	// append-only JSONL WAL under DataDir (jobs.journal) records every
	// submission (fsynced before the submit is acknowledged), start
	// and completion. On startup the journal is replayed: jobs that
	// were queued are resubmitted with their original IDs and specs
	// (deterministic specs re-run to identical results), jobs that
	// were mid-run are surfaced as status "interrupted" — unless the
	// journal also holds coordinator shard-completion records for
	// them, in which case they are requeued with the collected shards
	// pre-seeded so only the missing work re-runs. Empty disables
	// durability.
	DataDir string
	// Coordinator enables cluster mode: each job's fork-join shard
	// groups are dispatched to Cluster.Peers through the
	// fault-tolerant dispatcher, with local execution as the
	// guaranteed fallback. Results are bit-identical to a single-node
	// run of the same spec (arena_nodes excepted — see cluster.go).
	// With no peers configured, every shard runs the local fallback:
	// correct, just not distributed.
	Coordinator bool
	// Cluster tunes the shard dispatcher (peers, transport, timeouts,
	// retries, stealing, breakers). A nil Cluster.Transport selects
	// HTTP against the peers' POST /shards endpoints.
	Cluster cluster.Config
	// ShardPool bounds how many remote shards (POST /shards) this
	// node serves concurrently; excess requests get 503 with
	// Retry-After, which the coordinator's dispatcher treats as
	// overload, not failure. 0 selects 2.
	ShardPool int
	// ProbeInterval is the period of peer health probes, which trip a
	// dead peer's breaker before any shard is wasted on it and
	// reclose it when the peer returns. 0 disables probing.
	ProbeInterval time.Duration
}

func (c *Config) defaults() {
	if c.Pool <= 0 {
		c.Pool = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetainCount == 0 {
		c.RetainCount = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShardPool <= 0 {
		c.ShardPool = 2
	}
}

// Service schedules reverse-engineering jobs on a bounded runner
// pool. Create with New or Open; stop with Drain.
type Service struct {
	cfg   Config
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool
	journal  *journal

	wg sync.WaitGroup // runner goroutines

	// Cluster mode: the fault-tolerant shard dispatcher (nil unless
	// Config.Coordinator), its health prober's stop hook, and the
	// admission semaphore for shards served to other coordinators.
	dispatcher *cluster.Dispatcher
	stopProber func()
	shardSem   chan struct{}

	// fuzzHarnesses caches differential-fuzzing harnesses per
	// (device, OS, plant) across jobs and served shards.
	fuzzHarnesses fuzzHarnessCache

	m metrics
}

// job is the service-internal mutable record behind the Job
// snapshots.
type job struct {
	Job
	seq    int           // numeric submission order (ID = "job-<seq>")
	client string        // admission-control identity, "" if unknown
	stop   chan struct{} // closed to request cooperative cancellation
	// cancelled is set once cancellation was requested (guarded by
	// Service.mu); it keeps the stop channel single-close.
	cancelled bool
	// access is the retention clock: bumped on finish and on reads, so
	// count-bound eviction drops the least recently used finished job.
	access time.Time
	done   chan struct{}
	// shardCache holds shard results collected before a coordinator
	// crash, keyed by shardKey and pre-seeded from the journal on
	// replay; the shard runner returns these without re-dispatching.
	shardCache map[string]json.RawMessage
}

// ErrDraining rejects submissions after Drain began.
var ErrDraining = errors.New("jobsvc: service is draining")

// ErrBusy rejects submissions when the queue is full.
var ErrBusy = errors.New("jobsvc: job queue is full")

// ErrClientBusy rejects submissions when the client already holds
// Config.PerClientCap live jobs.
var ErrClientBusy = errors.New("jobsvc: per-client concurrent-job cap reached")

// ErrJournal wraps journal I/O failures: the submission was rejected
// because it could not be made durable.
var ErrJournal = errors.New("jobsvc: journal write failed")

// New starts a service with cfg.Pool runner goroutines. It panics if
// the durable journal cannot be opened or replayed (only possible
// with cfg.DataDir set) — use Open to handle that error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service, replaying the durable journal first when
// cfg.DataDir is set: journaled jobs that never started are
// resubmitted (same ID, same spec — deterministic specs reproduce
// their results exactly), and jobs that were mid-run when the
// previous process died are surfaced as status "interrupted".
func Open(cfg Config) (*Service, error) {
	cfg.defaults()
	s := &Service{
		cfg:  cfg,
		jobs: map[string]*job{},
	}
	var pending []*job
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("jobsvc: data dir: %w", err)
		}
		jl, recs, err := openJournal(filepath.Join(cfg.DataDir, journalFile))
		if err != nil {
			return nil, err
		}
		s.journal = jl
		pending = s.replay(recs)
	}
	// The queue must absorb every replayed job even when the backlog
	// outgrew the configured depth before the restart.
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *job, depth)
	for _, j := range pending {
		s.queue <- j
	}
	s.shardSem = make(chan struct{}, cfg.ShardPool)
	if cfg.Coordinator {
		ccfg := cfg.Cluster
		if ccfg.Transport == nil {
			ccfg.Transport = &cluster.HTTPTransport{Path: "/shards", ProbePath: "/healthz"}
		}
		s.dispatcher = cluster.NewDispatcher(ccfg)
		s.stopProber = s.dispatcher.StartProber(cfg.ProbeInterval)
	} else {
		s.stopProber = func() {}
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Submit validates and enqueues a job, returning its snapshot. It is
// SubmitFrom without a client identity (exempt from the per-client
// cap).
func (s *Service) Submit(spec JobSpec) (Job, error) {
	return s.SubmitFrom("", spec)
}

// SubmitFrom validates and enqueues a job on behalf of the given
// client, returning its snapshot. Admission control runs before any
// queue slot is taken: draining and malformed specs are rejected
// outright, a full queue returns ErrBusy, and a client already at
// Config.PerClientCap live jobs gets ErrClientBusy. With the durable
// journal enabled, the submission record is fsynced to disk before
// the job is acknowledged — an accepted job survives a crash.
func (s *Service) SubmitFrom(client string, spec JobSpec) (Job, error) {
	if err := validate(spec); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejectedDraining.Add(1)
		return Job{}, ErrDraining
	}
	if s.cfg.PerClientCap > 0 && client != "" {
		live := 0
		for _, j := range s.jobs {
			if j.client == client && !j.Status.Terminal() {
				live++
			}
		}
		if live >= s.cfg.PerClientCap {
			s.m.rejectedClientCap.Add(1)
			return Job{}, ErrClientBusy
		}
	}
	// All senders hold s.mu and runners only drain, so a spare slot
	// observed here cannot vanish before the send below.
	if len(s.queue) == cap(s.queue) {
		s.m.rejectedQueueFull.Add(1)
		return Job{}, ErrBusy
	}
	s.nextID++
	now := time.Now()
	j := &job{
		Job: Job{
			ID:        fmt.Sprintf("job-%d", s.nextID),
			Spec:      spec,
			Status:    StatusQueued,
			Submitted: now,
		},
		seq:    s.nextID,
		client: client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Durability before acknowledgement: the fsynced submitted record
	// is what restart replay re-runs the job from.
	if err := s.journalAppend(journalRecord{
		T: recSubmitted, ID: j.ID, TS: now, Client: client, Spec: &spec,
	}, true); err != nil {
		s.nextID--
		return Job{}, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.queue <- j
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.m.submitted.Add(1)
	s.evictLocked(now)
	// Snapshot under the lock: a pool runner may already be mutating
	// the job's status.
	return redactSpec(j.Job), nil
}

// redactSpec strips the uploaded image bytes from a snapshot's spec:
// they can be megabytes, and the API never needs to echo them back —
// neither in the submit response nor in listings or polls. The
// service-internal record keeps them for the runner.
func redactSpec(j Job) Job {
	if j.Spec.Program != nil && len(j.Spec.Program.Code) > 0 {
		p := *j.Spec.Program
		p.Code = nil
		j.Spec.Program = &p
	}
	return j
}

// validate rejects malformed specs at submission time, so queue slots
// are only spent on runnable jobs.
func validate(spec JobSpec) error {
	set := 0
	if spec.Driver != "" {
		set++
	}
	if spec.Program != nil {
		set++
	}
	if spec.Fuzz != nil {
		set++
	}
	if set != 1 {
		return errors.New("jobsvc: exactly one of driver, program or fuzz must be set")
	}
	if spec.Fuzz != nil {
		if err := validateFuzz(spec); err != nil {
			return err
		}
	}
	if spec.Driver != "" {
		if _, err := drivers.ByName(spec.Driver); err != nil {
			return fmt.Errorf("jobsvc: %w", err)
		}
	} else if spec.Program != nil {
		p := spec.Program
		if len(p.Code) == 0 {
			return errors.New("jobsvc: uploaded program has no code")
		}
		// The image must fit the guest RAM the engine copies it into.
		if uint64(p.Base)+uint64(len(p.Code)) > hw.RAMSize {
			return fmt.Errorf("jobsvc: program [%#x, %#x) exceeds guest RAM (%#x bytes)",
				p.Base, uint64(p.Base)+uint64(len(p.Code)), uint64(hw.RAMSize))
		}
	}
	if spec.Strategy != "" {
		if _, err := symexec.SearcherByName(spec.Strategy); err != nil {
			return fmt.Errorf("jobsvc: %w", err)
		}
	}
	if spec.Target != "" {
		ok := false
		for _, os := range template.AllOS {
			if template.OS(spec.Target) == os {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("jobsvc: unknown target OS %q (have %v)", spec.Target, template.AllOS)
		}
	}
	if spec.DeadlineMS < 0 {
		return fmt.Errorf("jobsvc: negative deadline_ms %d", spec.DeadlineMS)
	}
	return nil
}

// Get returns a snapshot of one job. Reading a finished job bumps its
// retention clock, so polled results stay resident while colder ones
// are evicted first.
func (s *Service) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	if j.Status.Terminal() {
		j.access = time.Now()
	}
	return redactSpec(j.Job), true
}

// Cancel requests cancellation of a job. A queued job transitions to
// cancelled immediately; a running job gets its cooperative stop
// signal and winds down to cancelled with a partial result within the
// engine's stop-detection latency (well under 2s). Cancelling an
// already-finished job is a no-op. The returned snapshot reflects the
// state after the request.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("jobsvc: unknown job %q", id)
	}
	switch j.Status {
	case StatusQueued:
		now := time.Now()
		j.Status = StatusCancelled
		j.Finished = &now
		j.access = now
		j.cancelled = true
		s.m.cancelled.Add(1)
		s.journalAppend(journalRecord{T: recFinished, ID: j.ID, TS: now, Status: StatusCancelled}, false)
		close(j.done)
	case StatusRunning:
		if !j.cancelled {
			j.cancelled = true
			close(j.stop)
		}
	}
	return redactSpec(j.Job), nil
}

// List returns snapshots of every job in stable submission order
// (ascending numeric ID), so /jobs output is deterministic no matter
// how submissions, completions and evictions interleave.
func (s *Service) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, redactSpec(j.Job))
	}
	seq := func(j Job) int {
		return s.jobs[j.ID].seq
	}
	sort.Slice(out, func(i, k int) bool { return seq(out[i]) < seq(out[k]) })
	return out
}

// Wait blocks until the job finishes (or ctx is done), returning the
// final snapshot. There is no waiter registration to leak: the wait
// selects on the job's completion channel, so a context cancellation
// simply returns — nothing stays behind in the service, no matter how
// many Waits were abandoned. The snapshot is taken from the job
// record itself, so Wait stays correct even if the finished job was
// evicted from the index between completion and wake-up.
func (s *Service) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("jobsvc: unknown job %q", id)
	}
	select {
	case <-j.done:
		s.mu.Lock()
		snap := redactSpec(j.Job)
		s.mu.Unlock()
		return snap, nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Drain stops accepting new jobs, lets queued and running jobs finish,
// and returns when the pool has wound down or ctx expires. It is the
// graceful-shutdown half of revnicd's signal handler; safe to call
// once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.stopProber()
	}
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// runner is one pool goroutine: it executes queued jobs until the
// queue is closed by Drain.
func (s *Service) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job end to end in a private expression arena.
func (s *Service) run(j *job) {
	s.mu.Lock()
	if j.Status != StatusQueued {
		// Cancelled while queued: the record is already terminal, the
		// queue entry is just a husk to skip.
		s.mu.Unlock()
		return
	}
	start := time.Now()
	j.Status = StatusRunning
	j.Started = &start
	deadline := s.deadlineFor(j.Spec, start)
	s.journalAppend(journalRecord{T: recStarted, ID: j.ID, TS: start}, false)
	s.mu.Unlock()
	s.m.running.Add(1)

	res, err := s.executeSpec(j, deadline)
	end := time.Now()
	s.m.running.Add(-1)
	s.m.durationSeconds.add(end.Sub(start).Seconds())

	status, errMsg := StatusSucceeded, ""
	switch {
	case err != nil:
		status, errMsg = StatusFailed, err.Error()
		s.m.failed.Add(1)
	case res.Stopped == "deadline":
		status = StatusDeadline
		s.m.deadlineHits.Add(1)
	case res.Stopped == "cancelled":
		status = StatusCancelled
		s.m.cancelled.Add(1)
	default:
		s.m.succeeded.Add(1)
	}
	if res != nil {
		s.m.solverQueries.Add(res.SolverQueries)
		s.m.satDecisions.Add(res.SolverSearch.Decisions)
		s.m.satConflicts.Add(res.SolverSearch.Conflicts)
		s.m.sessionsExtended.Add(res.SolverSearch.SessionsExtended)
		s.m.sessionsRebuilt.Add(res.SolverSearch.SessionsRebuilt)
		s.m.executedBlocks.Add(res.ExecutedBlocks)
		s.m.arenaNodesReclaimed.Add(int64(res.ArenaNodes))
		s.m.shardCollapses.Add(res.ShardCollapses)
		if res.ShardsEffective > 0 {
			s.m.shardsEffective.add(float64(res.ShardsEffective))
		}
		s.m.fuzzSchedules.Add(int64(res.FuzzSchedules))
		s.m.fuzzDivergences.Add(int64(len(res.Divergences)))
		s.m.fuzzUnexplored.Add(int64(res.FuzzUnexplored))
	}
	s.mu.Lock()
	j.Status = status
	j.Finished = &end
	j.Result = res
	j.Error = errMsg
	j.access = end
	s.journalAppend(journalRecord{T: recFinished, ID: j.ID, TS: end, Status: status, Error: errMsg}, false)
	s.evictLocked(end)
	s.mu.Unlock()
	close(j.done)
}

// deadlineFor combines the spec's per-job deadline with the service's
// global wall cap: the tighter bound wins; zero means unbounded.
func (s *Service) deadlineFor(spec JobSpec, start time.Time) time.Time {
	var d time.Duration
	if spec.DeadlineMS > 0 {
		d = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if s.cfg.MaxJobWall > 0 && (d == 0 || s.cfg.MaxJobWall < d) {
		d = s.cfg.MaxJobWall
	}
	if d == 0 {
		return time.Time{}
	}
	return start.Add(d)
}

// evictLocked enforces the retention policy over finished jobs: the
// age bound first, then the count bound dropping the least recently
// accessed. Queued and running jobs are never evicted. Called with
// s.mu held on every submission and completion.
func (s *Service) evictLocked(now time.Time) {
	var finished []*job
	for _, j := range s.jobs {
		if j.Status.Terminal() {
			finished = append(finished, j)
		}
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].access.Before(finished[k].access) })
	evict := 0
	if s.cfg.RetainAge > 0 {
		for evict < len(finished) && now.Sub(finished[evict].access) > s.cfg.RetainAge {
			evict++
		}
	}
	if s.cfg.RetainCount > 0 && len(finished)-evict > s.cfg.RetainCount {
		evict = len(finished) - s.cfg.RetainCount
	}
	for _, j := range finished[:evict] {
		delete(s.jobs, j.ID)
		for i, id := range s.order {
			if id == j.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.m.evicted.Add(1)
	}
}

// journalAppend writes one record to the durable journal (no-op
// without a data dir); sync forces an fsync before returning.
func (s *Service) journalAppend(rec journalRecord, sync bool) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.append(rec, sync)
}

// replay folds the journal records of the previous incarnation into
// the fresh service: jobs whose lifecycle completed are dropped (their
// results lived only in memory), jobs that were mid-run are surfaced
// as status "interrupted", and jobs that never started are rebuilt —
// original ID, spec and client — and returned for requeueing. The
// journal is then compacted to just the surviving submissions, so it
// does not grow without bound across restarts. Runs before any runner
// starts, so no locking.
func (s *Service) replay(recs []journalRecord) []*job {
	type entry struct {
		rec       journalRecord
		started   bool
		shards    map[string]json.RawMessage
		shardRecs []journalRecord
	}
	byID := map[string]*entry{}
	var ids []string // submission order
	for _, r := range recs {
		switch r.T {
		case recSubmitted:
			if _, dup := byID[r.ID]; !dup {
				byID[r.ID] = &entry{rec: r}
				ids = append(ids, r.ID)
			}
		case recStarted:
			if e := byID[r.ID]; e != nil {
				e.started = true
			}
		case recShardDone:
			// A collected shard result from a coordinator run; on
			// re-dispatch the same deterministic key recurs, so first
			// record wins.
			if e := byID[r.ID]; e != nil && r.Key != "" && len(r.Result) > 0 {
				if e.shards == nil {
					e.shards = map[string]json.RawMessage{}
				}
				if _, dup := e.shards[r.Key]; !dup {
					e.shards[r.Key] = r.Result
					e.shardRecs = append(e.shardRecs, r)
				}
			}
		case recShardDispatched:
			// Dispatch-only records carry no result to reuse; the shard
			// is simply re-dispatched on replay.
		case recFinished:
			delete(byID, r.ID)
		}
		// Track the highest seq ever journaled so new IDs never collide
		// with finished (and deleted) ones.
		var seq int
		if n, err := fmt.Sscanf(r.ID, "job-%d", &seq); n == 1 && err == nil && seq > s.nextID {
			s.nextID = seq
		}
	}

	var pending []*job
	var keep []journalRecord
	for _, id := range ids {
		e, ok := byID[id]
		if !ok || e.rec.Spec == nil {
			continue
		}
		j := &job{
			Job: Job{
				ID:        id,
				Spec:      *e.rec.Spec,
				Submitted: e.rec.TS,
			},
			client: e.rec.Client,
			stop:   make(chan struct{}),
			done:   make(chan struct{}),
		}
		fmt.Sscanf(id, "job-%d", &j.seq)
		switch {
		case len(e.shards) > 0:
			// Shard records survive compaction without the started
			// record, so this branch keys on them alone: a job with
			// collected shards is resumable whether or not the crash
			// (or a crash after compaction) kept its started marker.
			// A coordinator crash mid-fan-out: the journaled shard
			// results are pre-seeded so the re-run re-dispatches only
			// the missing shards and merges to the identical summary.
			j.Status = StatusQueued
			j.shardCache = e.shards
			pending = append(pending, j)
			keep = append(keep, e.rec)
			keep = append(keep, e.shardRecs...)
			s.m.replayedResumed.Add(1)
		case e.started:
			// Mid-run at crash time: the exploration state is gone and the
			// spec may have burned wall clock already, so it is surfaced
			// rather than silently re-run.
			now := time.Now()
			j.Status = StatusInterrupted
			j.Finished = &now
			j.access = now
			close(j.done)
			s.m.replayedInterrupted.Add(1)
		default:
			j.Status = StatusQueued
			pending = append(pending, j)
			keep = append(keep, e.rec)
			s.m.replayed.Add(1)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	// Compaction: rewrite errors are non-fatal — the un-compacted
	// journal still replays correctly, it is just longer.
	if s.journal != nil {
		_ = s.journal.rewrite(keep)
	}
	return pending
}

// ReplayStats reports how many journaled jobs the startup replay
// requeued and how many it marked interrupted.
func (s *Service) ReplayStats() (requeued, interrupted int64) {
	return s.m.replayed.Load(), s.m.replayedInterrupted.Load()
}

// crash simulates an abrupt process death for tests: runners are
// abandoned mid-job (their stop channels close so they wind down, but
// no finished records are written) and the journal file handle is
// dropped without compaction. Only the on-disk journal survives, which
// is exactly the state a SIGKILL leaves behind.
func (s *Service) crash() {
	s.mu.Lock()
	s.draining = true
	s.stopProber()
	if s.journal != nil {
		s.journal.close()
		s.journal = nil
	}
	close(s.queue)
	for _, j := range s.jobs {
		switch {
		case j.Status == StatusRunning && !j.cancelled:
			j.cancelled = true
			close(j.stop)
		case j.Status == StatusQueued:
			// Turn queued entries into husks the runners skip: a killed
			// process would never have run them.
			j.Status = StatusCancelled
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// engineConfig maps a spec to the engine configuration both the
// coordinator's own run and a peer's shard execution must share —
// any divergence here would break the bit-identity of remote shards.
func engineConfig(spec JobSpec, ar *expr.Arena) symexec.Config {
	var searcher symexec.SearcherFactory
	if spec.Strategy != "" {
		searcher, _ = symexec.SearcherByName(spec.Strategy)
	}
	return symexec.Config{
		Arena:            ar,
		Searcher:         searcher,
		Workers:          spec.Workers,
		Shards:           spec.Shards,
		MaxStates:        spec.MaxStates,
		PhaseBudget:      spec.PhaseBudget,
		StagnationBudget: spec.StagnationBudget,
		CompleteTarget:   spec.CompleteTarget,
		PollThreshold:    spec.PollThreshold,
	}
}

// runSpec runs the full pipeline for one spec and reduces it to a
// result summary. The expr.Arena created here is the job's whole
// expression universe — it is referenced only by the pipeline run and
// becomes collectable as soon as this function returns. A non-nil
// runner dispatches the exploration's shard groups to the cluster.
func runSpec(spec JobSpec, stop <-chan struct{}, deadline time.Time, runner symexec.ShardRunner) (*JobResult, error) {
	prog, shell, name, err := resolveProgram(spec)
	if err != nil {
		return nil, err
	}
	ar := expr.NewArena()
	ecfg := engineConfig(spec, ar)
	ecfg.Stop = stop
	ecfg.Deadline = deadline
	ecfg.ShardRunner = runner
	rev, err := core.ReverseEngineer(prog, core.Options{
		Shell:      shell,
		DriverName: name,
		Engine:     ecfg,
	})
	if err != nil {
		return nil, err
	}
	code := rev.Synth.Code
	if spec.Target != "" {
		code = rev.InstantiateTemplate(template.OS(spec.Target))
	}
	exp := rev.Exploration
	return &JobResult{
		Driver:            name,
		Strategy:          exp.Strategy,
		Coverage:          rev.Coverage(),
		CoveredBlocks:     exp.Collector.CoveredBlocks(),
		GroundTruthBlocks: rev.GroundTruth.NumBlocks(),
		ExecutedBlocks:    exp.ExecutedBlocks,
		TranslatedBlocks:  exp.TranslatedBlocks,
		Forks:             exp.ForkCount,
		KilledLoops:       exp.KilledLoops,
		SolverQueries:     exp.SolverQueries,
		SolverCacheHits:   exp.SolverCacheHits,
		SolverModelHits:   exp.SolverModelHits,
		SolverSearch:      exp.SolverSearch,
		Funcs:             len(rev.Synth.Funcs),
		ShardsEffective:   exp.ShardsEffective,
		ShardCollapses:    exp.ShardCollapses,
		ArenaNodes:        ar.InternedNodes(),
		Code:              code,
		Stopped:           stoppedString(exp.Stopped),
	}, nil
}

// stoppedString maps the engine's stop reason to the JobResult wire
// form: empty for a run that was never interrupted.
func stoppedString(r symexec.TermReason) string {
	switch r {
	case symexec.TermCancelled:
		return "cancelled"
	case symexec.TermDeadline:
		return "deadline"
	}
	return ""
}

// resolveProgram turns a spec into the pipeline inputs: a bundled
// driver with its inventory shell parameters, or an uploaded image
// with the spec's.
func resolveProgram(spec JobSpec) (*isa.Program, hw.PCIConfig, string, error) {
	if spec.Driver != "" {
		info, err := drivers.ByName(spec.Driver)
		if err != nil {
			return nil, hw.PCIConfig{}, "", err
		}
		return info.Program, core.ShellConfig(info), info.Name, nil
	}
	p := spec.Program
	name := p.Name
	if name == "" {
		name = "uploaded"
	}
	shell := hw.PCIConfig{
		VendorID: p.Shell.VendorID, DeviceID: p.Shell.DeviceID,
		IOBase: p.Shell.IOBase, IOSize: p.Shell.IOSize, IRQLine: p.Shell.IRQLine,
	}
	if shell.IOBase == 0 {
		shell.IOBase, shell.IOSize = 0xC000, 0x100
	}
	if shell.IRQLine == 0 {
		shell.IRQLine = 11
	}
	return &isa.Program{Base: p.Base, Code: p.Code}, shell, name, nil
}
