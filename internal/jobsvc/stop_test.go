package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/symexec"
)

// errCaptured ends a run once captureRunner holds a task.
var errCaptured = errors.New("shard task captured")

// captureRunner runs shard tasks locally, in order, and captures the
// first one that was still running when the run's context ended: a
// shard that does not finish on its own.
type captureRunner struct{ task *symexec.ShardTask }

func (c *captureRunner) RunShards(tasks []*symexec.ShardTask, local func(*symexec.ShardTask) (*symexec.ShardResult, error)) ([]*symexec.ShardResult, error) {
	var out []*symexec.ShardResult
	for _, task := range tasks {
		res, err := local(task)
		if err != nil {
			return nil, err
		}
		if res.Stopped != int(symexec.TermRunning) && res.Exec > 0 {
			c.task = task
			return nil, errCaptured
		}
		out = append(out, res)
	}
	return out, nil
}

// TestShardEndpointDeadline sends a peer a shard whose budgets never
// end, with a small deadline_ms in its envelope: the peer must bound
// the execution by it and answer within 2 s with a partial result
// marked TermDeadline.
func TestShardEndpointDeadline(t *testing.T) {
	spec := longSpec()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var cr captureRunner
	if _, err := runSpec(ctx, spec, &cr); !errors.Is(err, errCaptured) {
		t.Fatalf("capturing run ended with %v, want a captured shard", err)
	}

	svc := New(Config{Pool: 1})
	defer drainWithin(t, svc, 30*time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(shardEnvelope{Spec: spec, Task: cr.task, DeadlineMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	resp, err := client.Post(ts.URL+"/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("shard with deadline_ms 200 answered after %s, want < 2s", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res symexec.ShardResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Stopped != int(symexec.TermDeadline) {
		t.Fatalf("stopped = %d, want TermDeadline (%d)", res.Stopped, symexec.TermDeadline)
	}
	if res.Collector == nil || res.Exec == 0 {
		t.Errorf("partial result is empty: collector %v, exec %d", res.Collector != nil, res.Exec)
	}
}

// forwardingFaultsUntil is forwardingFaults whose forwarded requests
// also end with ctx. A fault transport's handler gets no request
// context, so a test that stops a coordinator job ends the peers'
// requests itself, as the HTTP transport does when the coordinator
// abandons an attempt.
func forwardingFaultsUntil(ctx context.Context) *cluster.FaultTransport {
	ht := &cluster.HTTPTransport{Path: "/shards", ProbePath: "/healthz"}
	return cluster.NewFaultTransport(func(peer string, body []byte) (*cluster.Response, error) {
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		return ht.Send(ctx, peer, body)
	})
}

// TestCoordinatorStops stops coordinator jobs of both kinds, by Cancel
// and by deadline_ms, while their shards run on live peers behind a
// fault transport: each job must end cancelled or deadline with a
// partial result, within the 2 s wind-down the single-node tests hold.
// Shards the stop leaves unsettled are run by the coordinator's local
// executor, which winds down at once.
func TestCoordinatorStops(t *testing.T) {
	peer1 := New(Config{Pool: 1, ShardPool: 4})
	defer drainWithin(t, peer1, 30*time.Second)
	peer2 := New(Config{Pool: 1, ShardPool: 4})
	defer drainWithin(t, peer2, 30*time.Second)
	ts1 := httptest.NewServer(peer1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(peer2.Handler())
	defer ts2.Close()

	fuzz := JobSpec{Seed: 2, Fuzz: &FuzzSpec{Device: "SBLK100", Budget: 1 << 20}}
	for _, tc := range []struct {
		name     string
		spec     JobSpec
		deadline int64 // deadline_ms; 0 cancels instead
	}{
		{"explore-cancel", longSpec(), 0},
		{"explore-deadline", longSpec(), 300},
		{"fuzz-cancel", fuzz, 0},
		{"fuzz-deadline", fuzz, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peerCtx, endPeers := context.WithCancel(context.Background())
			defer endPeers()
			ft := forwardingFaultsUntil(peerCtx)
			// The first request to each peer drops: stops must also
			// wind down retries.
			ft.Script(ts1.URL, cluster.Fault{Drop: true})
			ft.Script(ts2.URL, cluster.Fault{Drop: true})
			coord := New(coordinatorConfig([]string{ts1.URL, ts2.URL}, ft))
			defer drainWithin(t, coord, 30*time.Second)
			spec := tc.spec
			spec.DeadlineMS = tc.deadline
			j, err := coord.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, stopped := StatusDeadline, "deadline"
			if tc.deadline == 0 {
				want, stopped = StatusCancelled, "cancelled"
				waitRunning(t, coord, j.ID)
				time.Sleep(100 * time.Millisecond)
				if _, err := coord.Cancel(j.ID); err != nil {
					t.Fatal(err)
				}
				endPeers()
			}
			stopAt := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			final, err := coord.Wait(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.Status != want {
				t.Fatalf("status %s (%s), want %s", final.Status, final.Error, want)
			}
			if final.Result == nil || final.Result.Stopped != stopped {
				t.Fatalf("expected a partial result with stopped=%s, got %+v", stopped, final.Result)
			}
			if tc.deadline > 0 {
				stopAt = final.Started.Add(time.Duration(tc.deadline) * time.Millisecond)
			}
			if wind := final.Finished.Sub(stopAt); wind > 2*time.Second {
				t.Errorf("wind-down took %s, want < 2s", wind)
			}
			if spec.Fuzz == nil && final.Result.ExecutedBlocks == 0 {
				t.Error("partial result shows no execution at all")
			}
		})
	}
}
