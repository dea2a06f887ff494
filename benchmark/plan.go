package main

import (
	"math/rand"

	"revnic/internal/drivers"
	"revnic/internal/synth"
	"revnic/internal/template"
)

// driverPlan is how one corpus driver is reverse engineered for a
// whole run. The seed fixes it per driver rather than per operation,
// so every operation on a driver must reproduce the warm-up's output
// byte for byte, and per-driver counters are the same on every run of
// one seed.
type driverPlan struct {
	info       *drivers.Info
	target     template.OS
	style      string
	engineSeed int64
}

// plan turns a workload seed into the inputs of a run: per-driver
// target OS, emission style and engine seed, the order operations
// visit the drivers in, and the fuzz seeds and job mix. The program
// under test only ever sees the generated inputs.
type plan struct {
	seed    int64
	drivers []driverPlan
}

func newPlan(seed int64, corpus []*drivers.Info) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{seed: seed}
	styles := synth.StyleNames()
	for _, info := range corpus {
		p.drivers = append(p.drivers, driverPlan{
			info:   info,
			target: template.AllOS[rng.Intn(len(template.AllOS))],
			style:  styles[rng.Intn(len(styles))],
			// Engine seeds 1-3 are the range the service and the CLI
			// see in practice.
			engineSeed: 1 + rng.Int63n(3),
		})
	}
	return p
}

// blockPerm is the visiting order inside block b of n operations. The
// stream is a sequence of such blocks, so any window of whole blocks
// holds the same mix whatever the seed.
func (p *plan) blockPerm(b, n int) []int {
	return rand.New(rand.NewSource(p.seed*1_000_003 + int64(b))).Perm(n)
}

// driverOp is the driver index of operation i of a stream that cycles
// through every driver once per block: re-serial and fuzz.
func (p *plan) driverOp(i int) int {
	n := len(p.drivers)
	return p.blockPerm(i/n, n)[i%n]
}

// jobOp is operation i of the jobs-local workload.
type jobOp struct {
	fuzz   bool
	driver int
	// fuzzIndex numbers fuzz jobs in stream order; it seeds the job.
	fuzzIndex int
}

// reFuzzRatio is the job mix: reverse-engineering jobs per fuzz job.
const reFuzzRatio = 4

// jobOpAt is operation i of the job stream: each block holds
// reFuzzRatio reverse-engineering jobs and one fuzz job per driver, in
// a seeded order.
func (p *plan) jobOpAt(i int) jobOp {
	n := len(p.drivers)
	size := n * (reFuzzRatio + 1)
	b := i / size
	slot := p.blockPerm(b, size)[i%size]
	if slot < n*reFuzzRatio {
		return jobOp{driver: slot % n}
	}
	k := slot - n*reFuzzRatio
	return jobOp{fuzz: true, driver: k, fuzzIndex: b*n + k}
}

// fuzzSeed seeds the k-th fuzz operation of the run.
func (p *plan) fuzzSeed(k int) int64 { return p.seed + int64(k) }
