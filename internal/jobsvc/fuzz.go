package jobsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/difffuzz"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

// This file is the "fuzz" job kind: a JobSpec with Fuzz set runs the
// differential fuzzer (internal/difffuzz) instead of the synthesis
// pipeline — the synthesized driver and the original binary execute
// side by side on seeded schedules and any behavioral divergence
// lands, minimized, in the job result and on /metrics. Fuzz jobs ride
// the whole service surface for free: queueing, deadlines,
// cancellation, journaled crash replay, and — in coordinator mode —
// cluster-sharded schedule batches with journaled shard results.

// FuzzSpec selects differential fuzzing for a job. JobSpec.Seed seeds
// the schedule stream, JobSpec.Workers bounds executor parallelism
// (never affecting results), JobSpec.Target picks the synthesized-side
// template OS, and JobSpec.DeadlineMS bounds the wall clock as for any
// job.
type FuzzSpec struct {
	// Device names the corpus driver to fuzz differentially.
	Device string `json:"device"`
	// Budget is the total number of schedules (0 = 256).
	Budget int `json:"budget,omitempty"`
	// MaxSteps bounds schedule length (0 = 12).
	MaxSteps int `json:"max_steps,omitempty"`
	// Plant injects a synthetic synthesis bug (difffuzz.PlantKinds)
	// into the synthesized side — the self-test mode.
	Plant string `json:"plant,omitempty"`
}

// validateFuzz checks the fuzz-specific spec fields at submission.
func validateFuzz(spec JobSpec) error {
	fz := spec.Fuzz
	if _, err := drivers.ByName(fz.Device); err != nil {
		return fmt.Errorf("jobsvc: fuzz: %w", err)
	}
	if !difffuzz.ValidPlant(fz.Plant) {
		return fmt.Errorf("jobsvc: fuzz: unknown plant kind %q (have %v)", fz.Plant, difffuzz.PlantKinds)
	}
	if fz.Budget < 0 {
		return fmt.Errorf("jobsvc: fuzz: negative budget %d", fz.Budget)
	}
	if fz.MaxSteps < 0 || fz.MaxSteps > difffuzz.MaxScheduleSteps {
		return fmt.Errorf("jobsvc: fuzz: max_steps %d out of range [0, %d]", fz.MaxSteps, difffuzz.MaxScheduleSteps)
	}
	return nil
}

// fuzzHarnessCache shares built harnesses across jobs and served
// shards: one reverse-engineering run per (device, OS, plant) per
// process, not per job. Harnesses are read-only after construction
// apart from their device-model free list, which is safe for
// concurrent use (every schedule runs on fresh rigs; only their
// zeroed guest memory and their reset device models are recycled),
// so sharing is safe.
type fuzzHarnessCache struct {
	mu sync.Mutex
	m  map[string]*difffuzz.Harness
}

func (c *fuzzHarnessCache) get(device string, osKind template.OS, plant string) (*difffuzz.Harness, error) {
	key := device + "|" + string(osKind) + "|" + plant
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]*difffuzz.Harness{}
	}
	if h, ok := c.m[key]; ok {
		return h, nil
	}
	h, err := difffuzz.NewHarness(device, osKind, plant)
	if err != nil {
		return nil, err
	}
	c.m[key] = h
	return h, nil
}

// fuzzOS resolves the synthesized-side template OS for a fuzz spec.
func fuzzOS(spec JobSpec) template.OS {
	if spec.Target != "" {
		return template.OS(spec.Target)
	}
	return template.Windows
}

// runFuzzJob executes one fuzz job. It runs inside executeSpec's
// panic guard, so any fault in the fuzzer, the minimizer or the
// divergence path becomes a job failure with a stack in the record —
// never a daemon crash.
func (s *Service) runFuzzJob(j *job, deadline time.Time) (*JobResult, error) {
	fz := j.Spec.Fuzz
	osKind := fuzzOS(j.Spec)
	h, err := s.fuzzHarnesses.get(fz.Device, osKind, fz.Plant)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	stop := j.stop
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	cfg := difffuzz.Config{
		Device:   fz.Device,
		OS:       osKind,
		Seed:     j.Spec.Seed,
		Budget:   fz.Budget,
		MaxSteps: fz.MaxSteps,
		Workers:  j.Spec.Workers,
		Plant:    fz.Plant,
		Stop:     ctx.Done(),
	}
	if s.dispatcher != nil {
		fr := &fuzzShardRunner{s: s, j: j, ctx: ctx, workers: j.Spec.Workers, harness: h}
		cfg.RunBatch = fr.runBatch
	}
	rep, err := fuzzHook(h, cfg)
	if err != nil {
		return nil, err
	}

	res := &JobResult{
		Driver:           fz.Device,
		Strategy:         "difffuzz",
		FuzzSchedules:    rep.Schedules,
		FuzzCoverageKeys: rep.CoverageKeys,
		FuzzCorpus:       rep.CorpusSize,
		FuzzUnexplored:   rep.Unexplored,
		Divergences:      rep.Divergences,
		FuzzErrors:       rep.Errors,
	}
	if ctx.Err() != nil {
		select {
		case <-stop:
			res.Stopped = "cancelled"
		default:
			res.Stopped = "deadline"
		}
	}
	return res, nil
}

// fuzzHook is difffuzz.Fuzz behind a seam so tests can fault-inject
// the fuzzer (e.g. force a panic to exercise the failure record),
// mirroring runSpecHook.
var fuzzHook = difffuzz.Fuzz

// fuzzShard is the wire form of one dispatched schedule batch: the
// peer rebuilds the identical harness from the envelope's spec and
// executes the schedules, returning outcomes in input order.
type fuzzShard struct {
	Round     int                 `json:"round"`
	Schedules []difffuzz.Schedule `json:"schedules"`
}

// fuzzShardGroup is how many schedules one dispatched shard carries:
// big enough to amortize the HTTP round trip, small enough that a
// batch (16 schedules) fans out across peers.
const fuzzShardGroup = 4

// fuzzShardRunner adapts the cluster dispatcher to difffuzz's
// RunBatch seam, mirroring shardRunner.RunShards: schedule groups
// enter the capacity-aware work queue, journal-replayed groups are
// pre-filled, settled groups are journaled for crash replay, and the
// merged outcome order is the batch order — so a clustered fuzz job
// reports bit-identically to a single-node run of the same spec.
type fuzzShardRunner struct {
	s       *Service
	j       *job
	ctx     context.Context
	workers int
	harness *difffuzz.Harness
}

// fuzzShardKey names one schedule group of one job. Schedule batches
// are regenerated deterministically on a re-run of the same spec, so
// the key is stable across coordinator restarts, exactly like
// exploration shard keys.
func fuzzShardKey(round, group int) string {
	return fmt.Sprintf("fuzz/%d/%d", round, group)
}

func (r *fuzzShardRunner) runBatch(round int, batch []difffuzz.Schedule) ([]difffuzz.Outcome, error) {
	outs := make([]difffuzz.Outcome, len(batch))
	var deadlineMS int64
	if dl, ok := r.ctx.Deadline(); ok {
		deadlineMS = time.Until(dl).Milliseconds()
		if deadlineMS < 1 {
			deadlineMS = 1
		}
	}
	var items []cluster.QueueItem
	var spans [][2]int // queue position → [start, end) in batch
	for start := 0; start < len(batch); start += fuzzShardGroup {
		end := min(start+fuzzShardGroup, len(batch))
		key := fuzzShardKey(round, start/fuzzShardGroup)
		if raw, ok := r.j.shardCache[key]; ok {
			var cached []difffuzz.Outcome
			if err := json.Unmarshal(raw, &cached); err == nil && len(cached) == end-start {
				r.s.m.shardsReplayed.Add(1)
				copy(outs[start:end], cached)
				continue
			}
			// An unreadable cached result, or one whose coverage keys
			// fail difffuzz.CovKeys's checks, is re-executed, never
			// trusted.
		}
		group := batch[start:end]
		payload, err := json.Marshal(shardEnvelope{
			Spec: r.j.Spec, Fuzz: &fuzzShard{Round: round, Schedules: group}, DeadlineMS: deadlineMS,
		})
		if err != nil {
			return nil, err
		}
		r.s.journalAppend(journalRecord{
			T: recShardDispatched, ID: r.j.ID, TS: time.Now(), Key: key,
		}, false)
		items = append(items, cluster.QueueItem{
			Key:     r.j.ID + "/" + key,
			Payload: payload,
			Accept:  acceptFuzzOutcomes(len(group)),
			Local: func() ([]byte, error) {
				return json.Marshal(difffuzz.RunBatch(r.harness, group, r.workers))
			},
			OnDone: func(body []byte) {
				var res []difffuzz.Outcome
				if err := json.Unmarshal(body, &res); err != nil {
					return
				}
				if compact, err := json.Marshal(res); err == nil {
					r.s.journalAppend(journalRecord{
						T: recShardDone, ID: r.j.ID, TS: time.Now(), Key: key, Result: compact,
					}, false)
				}
			},
		})
		spans = append(spans, [2]int{start, end})
	}
	if len(items) == 0 {
		return outs, nil
	}
	bodies, err := r.s.dispatcher.RunQueue(r.ctx, items)
	if err != nil {
		return nil, err
	}
	for qi, body := range bodies {
		var res []difffuzz.Outcome
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("jobsvc: fuzz shard %s: decode outcomes: %w", items[qi].Key, err)
		}
		copy(outs[spans[qi][0]:spans[qi][1]], res)
	}
	return outs, nil
}

// acceptFuzzOutcomes validates a peer's fuzz-shard response before
// the dispatcher trusts it: it must decode to exactly one outcome per
// dispatched schedule, and decoding rejects an outcome whose coverage
// keys are over difffuzz's cap or not strictly increasing.
func acceptFuzzOutcomes(n int) func([]byte) error {
	return func(body []byte) error {
		var res []difffuzz.Outcome
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		if len(res) != n {
			return fmt.Errorf("fuzz shard returned %d outcomes for %d schedules", len(res), n)
		}
		return nil
	}
}

// badFuzzShard marks a fuzz shard rejected before anything ran; the
// shard endpoint answers it with 400.
type badFuzzShard struct{ error }

// executeFuzzShard serves one schedule batch on behalf of a
// coordinator (the fuzz arm of POST /shards). Every schedule must
// pass Validate before any runs. The harness is cached per (device,
// OS, plant), so repeat shards of the same job skip the
// reverse-engineering run.
func (s *Service) executeFuzzShard(ctx context.Context, env shardEnvelope) (outs []difffuzz.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			outs, err = nil, fmt.Errorf("jobsvc: fuzz shard panic: %v", r)
		}
	}()
	if env.Spec.Fuzz == nil {
		return nil, badFuzzShard{errors.New("jobsvc: fuzz shard envelope without fuzz spec")}
	}
	if len(env.Fuzz.Schedules) == 0 {
		return nil, badFuzzShard{errors.New("jobsvc: fuzz shard has no schedules")}
	}
	for _, sc := range env.Fuzz.Schedules {
		if err := sc.Validate(); err != nil {
			return nil, badFuzzShard{err}
		}
	}
	h, err := s.fuzzHarnesses.get(env.Spec.Fuzz.Device, fuzzOS(env.Spec), env.Spec.Fuzz.Plant)
	if err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	return difffuzz.RunBatch(h, env.Fuzz.Schedules, env.Spec.Workers), nil
}
