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
// answers every shard request 1.2 seconds late. The work queue
// re-dispatches stragglers first-completion-wins, so the cell's
// wall-clock shows how much of the slow peer's latency the job still
// pays. Every run must produce a result bit-identical to a single-node
// run of the spec (arena_nodes excepted, as always for coordinator
// mode).

const (
	stragglerLatency = 1200 * time.Millisecond
	stragglerSteal   = 250 * time.Millisecond
)

func runStragglerScenario(repeats int) (gridCell, error) {
	spec := jobsvc.JobSpec{Driver: "RTL8029", Workers: 2}

	// Single-node reference for the bit-identity check.
	baseline := jobsvc.New(jobsvc.Config{Pool: 1})
	want, err := runCoordinatorJob(baseline, spec)
	drainService(baseline)
	if err != nil {
		return gridCell{}, fmt.Errorf("straggler baseline: %w", err)
	}

	cell := gridCell{Workers: spec.Workers, Scenario: "straggler-steal"}
	for rep := 0; rep < repeats; rep++ {
		ms, res, err := timeStragglerRun(spec)
		if err != nil {
			return cell, fmt.Errorf("straggler: %w", err)
		}
		if err := sameJobResult(res, want); err != nil {
			return cell, fmt.Errorf("straggler: %w", err)
		}
		cell.RunsMS = append(cell.RunsMS, ms)
		cell.SolverQueries = res.SolverQueries
		cell.CacheHits = res.SolverCacheHits
		cell.ModelHits = res.SolverModelHits
		cell.CoveredBlocks = res.CoveredBlocks
		cell.Search = res.SolverSearch
	}
	cell.MeanMS, cell.StdMS = meanStd(cell.RunsMS)
	fmt.Fprintf(os.Stderr, "revbench: straggler steal %.0f ms ± %.0f\n", cell.MeanMS, cell.StdMS)
	return cell, nil
}

// timeStragglerRun stands up two live peers (one chronically slow at
// the transport layer), runs one coordinator job, and returns the job
// wall-clock and result.
func timeStragglerRun(spec jobsvc.JobSpec) (float64, *jobsvc.JobResult, error) {
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
	ft := cluster.NewFaultTransport(ht.Send)
	ft.SetLatency(tsSlow.URL, stragglerLatency)

	coord := jobsvc.New(jobsvc.Config{
		Pool:        1,
		Coordinator: true,
		Cluster: cluster.Config{
			Peers:          []string{tsFast.URL, tsSlow.URL},
			Transport:      ft,
			AttemptTimeout: 60 * time.Second,
			MaxAttempts:    3,
			BackoffBase:    time.Millisecond,
			BackoffCap:     10 * time.Millisecond,
			Seed:           7,
			StealAfterMin:  stragglerSteal,
			StealInterval:  10 * time.Millisecond,
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
