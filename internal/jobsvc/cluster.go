package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/expr"
	"revnic/internal/symexec"
)

// This file is revnicd's coordinator mode: with Config.Coordinator
// set, a job's deterministic fork-join shard groups are serialized
// and fanned out to peer revnicd instances through the fault-tolerant
// cluster.Dispatcher (POST /shards on the peer side), and the merged
// summary is bit-identical to a single-node run of the same spec —
// the shard decomposition, task identities and merge order are pure
// functions of the spec, and shard execution itself is idempotent, so
// retries, steals and local fallbacks cannot change the result. The
// one exception is arena_nodes: a coordinator's arena never interns
// the intermediate expressions remote shards allocate on their own
// peers, so that gauge of allocator load is mode-dependent by nature.

// shardEnvelope is the wire form of one dispatched shard: the job
// spec (a peer rebuilds the identical engine configuration from it,
// including uploaded program images) plus the self-contained task.
type shardEnvelope struct {
	Spec JobSpec            `json:"spec"`
	Task *symexec.ShardTask `json:"task,omitempty"`
	// Fuzz carries a differential-fuzzing schedule batch instead of
	// an exploration task; exactly one of Task/Fuzz is set.
	Fuzz *fuzzShard `json:"fuzz,omitempty"`
	// DeadlineMS is the coordinator job's remaining wall budget in
	// milliseconds; the peer bounds the shard execution with it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// shardKey names one shard of one job: tasks are regenerated
// deterministically on a re-run of the same spec, so the key is
// stable across coordinator restarts — which is what lets journal
// replay match collected results to re-dispatched shards.
func shardKey(task *symexec.ShardTask) string {
	return fmt.Sprintf("%s/%d/%d", task.Phase, task.Seq, task.Index)
}

// shardRunner adapts the cluster dispatcher to symexec.ShardRunner
// for one job: every phase's tasks go through dispatchShards.
type shardRunner struct {
	s   *Service
	j   *job
	ctx context.Context
}

// RunShards hands a whole phase's shard tasks to dispatchShards.
// Scheduling only decides where and when a shard runs — the returned
// results are in task order and the caller's seed-order merge is
// untouched.
func (r *shardRunner) RunShards(tasks []*symexec.ShardTask, local func(*symexec.ShardTask) (*symexec.ShardResult, error)) ([]*symexec.ShardResult, error) {
	calls := make([]shardCall[*symexec.ShardResult], len(tasks))
	for i, task := range tasks {
		calls[i] = shardCall[*symexec.ShardResult]{
			key:    shardKey(task),
			env:    shardEnvelope{Task: task},
			local:  func() (*symexec.ShardResult, error) { return local(task) },
			accept: acceptShardResult,
		}
	}
	return dispatchShards(r.ctx, r.s, r.j, calls)
}

// shardCall is one shard of a coordinator dispatch, of either kind: its
// shard key (journal records and replay cache), its envelope (Task or
// Fuzz set; dispatchShards fills in Spec and DeadlineMS), the local
// executor, and the validator a result body — a peer's response or a
// journal-replayed result — must pass before it is trusted.
type shardCall[R any] struct {
	key    string
	env    shardEnvelope
	local  func() (R, error)
	accept func([]byte) error
}

// dispatchShards is revnicd's one shard-dispatch adapter. It hands the
// calls to the dispatcher's capacity-aware work queue at once, where
// idle peers pull them and straggler shards are re-dispatched
// first-completion-wins. Journal-replayed shards that pass the
// validator are pre-filled and never re-enter the queue (an
// unreadable or rejected cached result is re-executed, never
// trusted); each dispatched shard is journaled, and each settling
// shard is decoded into its slot and journaled again, compactly and
// with its result, from the queue's OnDone callback, so a coordinator
// crash mid-phase replays with the settled shards already collected.
// Results are in call order.
//
// When ctx ends (the job was cancelled or hit its deadline) the queue
// returns with shards unsettled. Those run here on the local executor
// (an exploration shard sees the same done context and winds down at
// once; a fuzz group runs its few schedules), so a stopped phase still
// merges to a partial but well-formed result.
func dispatchShards[R any](ctx context.Context, s *Service, j *job, calls []shardCall[R]) ([]R, error) {
	results := make([]R, len(calls))
	settled := make([]bool, len(calls)) // written by OnDone before RunQueue returns
	var deadlineMS int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineMS = max(time.Until(dl).Milliseconds(), 1)
	}
	var items []cluster.QueueItem
	for i, c := range calls {
		if raw, ok := j.shardCache[c.key]; ok && c.accept(raw) == nil {
			if err := json.Unmarshal(raw, &results[i]); err == nil {
				s.m.shardsReplayed.Add(1)
				settled[i] = true
				continue
			}
		}
		env := c.env
		env.Spec, env.DeadlineMS = j.Spec, deadlineMS
		payload, err := json.Marshal(env)
		if err != nil {
			return nil, err
		}
		s.journalAppend(journalRecord{
			T: recShardDispatched, ID: j.ID, TS: time.Now(), Key: c.key,
		}, false)
		items = append(items, cluster.QueueItem{
			Key:     j.ID + "/" + c.key,
			Payload: payload,
			Accept:  c.accept,
			Local: func() ([]byte, error) {
				res, err := c.local()
				if err != nil {
					return nil, err
				}
				return json.Marshal(res)
			},
			OnDone: func(body []byte) {
				var res R
				if err := json.Unmarshal(body, &res); err != nil {
					return
				}
				results[i], settled[i] = res, true
				// The body may be indented JSON; the journal is
				// line-oriented.
				if compact, err := json.Marshal(res); err == nil {
					s.journalAppend(journalRecord{
						T: recShardDone, ID: j.ID, TS: time.Now(), Key: c.key, Result: compact,
					}, false)
				}
			},
		})
	}
	if len(items) == 0 {
		return results, nil
	}
	if _, err := s.dispatcher.RunQueue(ctx, items); err != nil && ctx.Err() == nil {
		return nil, err
	}
	for i, c := range calls {
		if settled[i] {
			continue
		}
		if ctx.Err() == nil {
			return nil, fmt.Errorf("jobsvc: shard %s/%s: undecodable result", j.ID, c.key)
		}
		res, err := c.local()
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// acceptShardResult validates a peer's response body before the
// dispatcher trusts it: a torn or truncated body fails the unmarshal
// and is retried like any other peer failure, and a structurally
// empty result (no collector) is rejected rather than merged.
func acceptShardResult(body []byte) error {
	var res symexec.ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if res.Collector == nil {
		return errors.New("shard result has no collector")
	}
	return nil
}

// executeSpec runs the full pipeline for one job under the job's
// context, fanning shard groups out to the cluster when coordinator
// mode is on. A panic anywhere in the pipeline fails the job, not the
// daemon; the failure record carries the panic value and a trimmed
// stack so the operator can diagnose it from GET /jobs/{id} alone.
func (s *Service) executeSpec(ctx context.Context, j *job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("jobsvc: pipeline panic: %v\n%s", r, trimStack(debug.Stack()))
		}
	}()
	if j.Spec.Fuzz != nil {
		// Differential fuzzing rides the same panic guard: a fault in
		// the fuzzer or minimizer fails the job, not the runner pool.
		return s.runFuzzJob(ctx, j)
	}
	var runner symexec.ShardRunner
	if s.dispatcher != nil {
		runner = &shardRunner{s: s, j: j, ctx: ctx}
	}
	return runSpecHook(ctx, j.Spec, runner)
}

// runSpecHook is runSpec behind a seam so tests can fault-inject the
// pipeline (e.g. force a panic to exercise the failure record).
var runSpecHook = runSpec

// trimStack keeps the head of a panic stack trace: enough frames to
// locate the fault, small enough to store in a job record and ship in
// every status response.
func trimStack(stack []byte) []byte {
	const maxLines = 16
	lines := bytes.SplitAfterN(stack, []byte("\n"), maxLines+1)
	if len(lines) <= maxLines {
		return bytes.TrimRight(stack, "\n")
	}
	trimmed := bytes.Join(lines[:maxLines], nil)
	return append(bytes.TrimRight(trimmed, "\n"), []byte("\n\t...")...)
}

// handleShard serves POST /shards: the peer side of coordinator
// dispatch. Admission control mirrors job submission: a draining
// peer refuses outright, and a peer already serving its ShardPool
// limit answers 503 with a Retry-After estimate — the dispatcher
// treats that as overload (wait and retry), not failure.
func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		s.m.shardsRejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable,
			errors.New("jobsvc: shard capacity exhausted"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var env shardEnvelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode shard envelope: %w", err))
		return
	}
	if (env.Task == nil) == (env.Fuzz == nil) {
		writeError(w, http.StatusBadRequest, errors.New("jobsvc: shard envelope must carry exactly one of task or fuzz"))
		return
	}
	if err := validate(env.Spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if env.Fuzz != nil {
		outs, err := s.executeFuzzShard(r.Context(), env)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.As(err, new(badFuzzShard)) {
				code = http.StatusBadRequest
			}
			writeError(w, code, err)
			return
		}
		s.m.shardsServed.Add(1)
		writeJSON(w, http.StatusOK, outs)
		return
	}
	res, err := s.executeShard(r.Context(), env)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.shardsServed.Add(1)
	writeJSON(w, http.StatusOK, res)
}

// executeShard runs one remote shard task on this node, in a fresh
// arena, bounded by the request context (a dispatcher that gave up —
// timeout, steal won elsewhere, coordinator died — cancels it) and
// the envelope's remaining deadline.
func (s *Service) executeShard(ctx context.Context, env shardEnvelope) (res *symexec.ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("jobsvc: shard panic: %v\n%s", r, trimStack(debug.Stack()))
		}
	}()
	prog, shell, _, err := resolveProgram(env.Spec)
	if err != nil {
		return nil, err
	}
	if env.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(env.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	cfg := engineConfig(env.Spec, expr.NewArena())
	cfg.Shell = shell
	cfg.Context = ctx
	return symexec.ExecuteShardTask(prog, cfg, env.Task)
}

// ClusterSnapshot reports the dispatcher's per-peer counters and
// breaker states; ok is false when coordinator mode is off.
func (s *Service) ClusterSnapshot() (cluster.Snapshot, bool) {
	if s.dispatcher == nil {
		return cluster.Snapshot{}, false
	}
	return s.dispatcher.Snapshot(), true
}
