package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/jobsvc"
)

// The coordinator straggler scenario (-grid-cluster): one job fans
// its shard groups out to two live in-process peers, one of which
// answers every shard request 1.2 seconds late. The same spec runs on
// the work queue twice: with stealing off (a shard the slow peer pulled
// waits out its latency) and with stealing on (stragglers are
// re-dispatched first-completion-wins). Both runs must produce results
// bit-identical to a single-node run of the spec (arena_nodes
// excepted, as always for coordinator mode); the wall-clock ratio
// between them is what stealing buys back from a slow node.

const (
	stragglerLatency = 1200 * time.Millisecond
	stragglerSteal   = 250 * time.Millisecond
)

func runStragglerScenario(repeats int) ([]gridCell, error) {
	spec := jobsvc.JobSpec{Driver: "RTL8029", Seed: 11, Workers: 2}

	// Single-node reference for the bit-identity check.
	baseline := jobsvc.New(jobsvc.Config{Pool: 1})
	want, err := runCoordinatorJob(baseline, spec)
	drainService(baseline)
	if err != nil {
		return nil, fmt.Errorf("straggler baseline: %w", err)
	}

	nosteal := gridCell{Solver: "incremental", Workers: spec.Workers, Scenario: "straggler-nosteal"}
	steal := gridCell{Solver: "incremental", Workers: spec.Workers, Scenario: "straggler-steal"}
	for rep := 0; rep < repeats; rep++ {
		for _, mode := range []struct {
			cell    *gridCell
			noSteal bool
		}{{&nosteal, true}, {&steal, false}} {
			ms, res, err := timeStragglerRun(spec, mode.noSteal)
			if err != nil {
				return nil, fmt.Errorf("straggler %s: %w", mode.cell.Scenario, err)
			}
			if err := sameJobResult(res, want); err != nil {
				return nil, fmt.Errorf("straggler %s: %w", mode.cell.Scenario, err)
			}
			mode.cell.RunsMS = append(mode.cell.RunsMS, ms)
			if rep == repeats-1 {
				mode.cell.SolverQueries = res.SolverQueries
				mode.cell.CacheHits = res.SolverCacheHits
				mode.cell.ModelHits = res.SolverModelHits
				mode.cell.CoveredBlocks = res.CoveredBlocks
				mode.cell.Search = res.SolverSearch
			}
		}
	}
	nosteal.MeanMS, nosteal.StdMS = meanStd(nosteal.RunsMS)
	steal.MeanMS, steal.StdMS = meanStd(steal.RunsMS)
	if steal.MeanMS > 0 {
		steal.SpeedupX = nosteal.MeanMS / steal.MeanMS
	}
	fmt.Fprintf(os.Stderr, "revbench: straggler no-steal %.0f ms, steal %.0f ms — %.2fx recovery\n",
		nosteal.MeanMS, steal.MeanMS, steal.SpeedupX)
	if steal.SpeedupX < 1.3 {
		fmt.Fprintf(os.Stderr, "revbench: WARNING: straggler recovery %.2fx below the 1.3x target\n", steal.SpeedupX)
	}
	return []gridCell{nosteal, steal}, nil
}

// timeStragglerRun stands up two live peers (one chronically slow at
// the transport layer), runs one coordinator job with stealing on or
// off, and returns the job wall-clock and result.
func timeStragglerRun(spec jobsvc.JobSpec, noSteal bool) (float64, *jobsvc.JobResult, error) {
	fast := jobsvc.New(jobsvc.Config{Pool: 1, ShardPool: 16})
	tsFast := httptest.NewServer(fast.Handler())
	slow := jobsvc.New(jobsvc.Config{Pool: 1, ShardPool: 16})
	tsSlow := httptest.NewServer(slow.Handler())
	defer func() {
		tsFast.Close()
		tsSlow.Close()
		drainService(fast)
		drainService(slow)
	}()

	ht := &cluster.HTTPTransport{Path: "/shards", ProbePath: "/healthz"}
	ft := cluster.NewFaultTransport(func(peer string, body []byte) (*cluster.Response, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return ht.Send(ctx, peer, body)
	})
	ft.SetLatency(tsSlow.URL, stragglerLatency)

	coord := jobsvc.New(jobsvc.Config{
		Pool:        1,
		Coordinator: true,
		Cluster: cluster.Config{
			Peers:           []string{tsFast.URL, tsSlow.URL},
			Transport:       ft,
			AttemptTimeout:  60 * time.Second,
			MaxAttempts:     3,
			BackoffBase:     time.Millisecond,
			BackoffCap:      10 * time.Millisecond,
			Seed:            7,
			DisableStealing: noSteal,
			StealAfterMin:   stragglerSteal,
			StealInterval:   10 * time.Millisecond,
			// The slow peer still succeeds (latency < timeout), so the
			// breaker never has failures to count; a high MinSamples
			// keeps it out of the measurement entirely.
			Breaker: cluster.BreakerConfig{Window: 8, MinSamples: 100},
		},
	})
	defer drainService(coord)

	start := time.Now()
	res, err := runCoordinatorJob(coord, spec)
	if err != nil {
		return 0, nil, err
	}
	return float64(time.Since(start).Microseconds()) / 1000, res, nil
}

func runCoordinatorJob(svc *jobsvc.Service, spec jobsvc.JobSpec) (*jobsvc.JobResult, error) {
	j, err := svc.Submit(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	done, err := svc.Wait(ctx, j.ID)
	if err != nil {
		return nil, err
	}
	if done.Status != jobsvc.StatusSucceeded {
		return nil, fmt.Errorf("job finished %s: %s", done.Status, done.Error)
	}
	return done.Result, nil
}

func drainService(svc *jobsvc.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.Drain(ctx)
}

// sameJobResult enforces the scheduling determinism contract: a
// coordinator result must match the single-node result of the same
// spec field for field, except arena_nodes (a coordinator's arena
// never interns what remote shards allocate on their peers).
func sameJobResult(got, want *jobsvc.JobResult) error {
	g, w := *got, *want
	g.ArenaNodes, w.ArenaNodes = 0, 0
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("result diverged from single-node run\n got: %s\nwant: %s", gb, wb)
	}
	return nil
}
