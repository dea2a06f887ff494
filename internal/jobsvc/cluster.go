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
// for one job: it serializes tasks, consults the journal-replayed
// shard cache, runs them on the dispatcher's work queue, journals
// dispatch and completion, and deserializes results.
type shardRunner struct {
	s   *Service
	j   *job
	ctx context.Context
}

// RunShards hands a whole phase's shard tasks to the dispatcher's
// capacity-aware work queue at once, where idle peers pull them and
// straggler shards are re-dispatched first-completion-wins. Journal-replayed shards are pre-filled and never re-enter the
// queue; each settling shard is journaled from the queue's OnDone
// callback, preserving crash-replay behavior. Scheduling only decides
// where and when a shard runs — the returned results are in task
// order and the caller's seed-order merge is untouched.
func (r *shardRunner) RunShards(tasks []*symexec.ShardTask, local func(*symexec.ShardTask) (*symexec.ShardResult, error)) ([]*symexec.ShardResult, error) {
	results := make([]*symexec.ShardResult, len(tasks))
	var deadlineMS int64
	if dl, ok := r.ctx.Deadline(); ok {
		deadlineMS = time.Until(dl).Milliseconds()
		if deadlineMS < 1 {
			deadlineMS = 1
		}
	}
	items := make([]cluster.QueueItem, 0, len(tasks))
	idxs := make([]int, 0, len(tasks)) // queue position → task index
	for i, task := range tasks {
		key := shardKey(task)
		if raw, ok := r.j.shardCache[key]; ok {
			var res symexec.ShardResult
			if err := json.Unmarshal(raw, &res); err == nil {
				r.s.m.shardsReplayed.Add(1)
				results[i] = &res
				continue
			}
			// An unreadable cached result is re-executed, never trusted.
		}
		payload, err := json.Marshal(shardEnvelope{Spec: r.j.Spec, Task: task, DeadlineMS: deadlineMS})
		if err != nil {
			return nil, err
		}
		r.s.journalAppend(journalRecord{
			T: recShardDispatched, ID: r.j.ID, TS: time.Now(), Key: key,
		}, false)
		task := task
		items = append(items, cluster.QueueItem{
			Key:     r.j.ID + "/" + key,
			Payload: payload,
			Accept:  acceptShardResult,
			Local: func() ([]byte, error) {
				res, err := local(task)
				if err != nil {
					return nil, err
				}
				return json.Marshal(res)
			},
			OnDone: func(body []byte) {
				// Journal the completed shard compactly (the body may be
				// indented JSON; the journal is line-oriented) so a
				// coordinator crash mid-phase replays with the settled
				// shards already collected.
				var res symexec.ShardResult
				if err := json.Unmarshal(body, &res); err != nil {
					return
				}
				if compact, err := json.Marshal(&res); err == nil {
					r.s.journalAppend(journalRecord{
						T: recShardDone, ID: r.j.ID, TS: time.Now(), Key: key, Result: compact,
					}, false)
				}
			},
		})
		idxs = append(idxs, i)
	}
	if len(items) == 0 {
		return results, nil
	}
	bodies, err := r.s.dispatcher.RunQueue(r.ctx, items)
	if err != nil {
		return nil, err
	}
	for qi, body := range bodies {
		var res symexec.ShardResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("jobsvc: shard %s: decode result: %w", items[qi].Key, err)
		}
		results[idxs[qi]] = &res
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

// executeSpec runs the full pipeline for one job, fanning shard
// groups out to the cluster when coordinator mode is on. A panic
// anywhere in the pipeline fails the job, not the daemon; the failure
// record carries the panic value and a trimmed stack so the operator
// can diagnose it from GET /jobs/{id} alone.
func (s *Service) executeSpec(j *job, deadline time.Time) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("jobsvc: pipeline panic: %v\n%s", r, trimStack(debug.Stack()))
		}
	}()
	if j.Spec.Fuzz != nil {
		// Differential fuzzing rides the same panic guard: a fault in
		// the fuzzer or minimizer fails the job, not the runner pool.
		return s.runFuzzJob(j, deadline)
	}
	var runner symexec.ShardRunner
	if s.dispatcher != nil {
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
		runner = &shardRunner{s: s, j: j, ctx: ctx}
	}
	return runSpecHook(j.Spec, j.stop, deadline, runner)
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
	cfg := engineConfig(env.Spec, expr.NewArena())
	cfg.Shell = shell
	cfg.Stop = ctx.Done()
	if env.DeadlineMS > 0 {
		cfg.Deadline = time.Now().Add(time.Duration(env.DeadlineMS) * time.Millisecond)
	}
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
