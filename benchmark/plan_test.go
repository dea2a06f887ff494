package main

import (
	"reflect"
	"testing"

	"revnic/internal/drivers"
)

// stream is the first ops of every op stream of a plan, with the
// per-driver settings: everything the seed decides.
func stream(p *plan, n int) []any {
	var out []any
	for _, dp := range p.drivers {
		out = append(out, dp.info.Name, dp.target, dp.style, dp.engineSeed)
	}
	for i := range n {
		out = append(out, p.driverOp(i), p.jobOpAt(i), p.fuzzSeed(i))
	}
	return out
}

func TestOpStreamDeterminism(t *testing.T) {
	corpus := drivers.Corpus()
	a, b := stream(newPlan(11, corpus), 200), stream(newPlan(11, corpus), 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two op streams")
	}
	if reflect.DeepEqual(a, stream(newPlan(12, corpus), 200)) {
		t.Fatal("seeds 11 and 12 gave the same op stream")
	}
}

// Whole blocks hold the same mix for every seed, so window-level
// numbers do not depend on which drivers the seed happened to favour.
func TestOpStreamBlocksAreBalanced(t *testing.T) {
	corpus := drivers.Corpus()
	n := len(corpus)
	for seed := int64(1); seed <= 5; seed++ {
		p := newPlan(seed, corpus)
		for b := range 3 {
			re := map[int]int{}
			for i := b * n; i < (b+1)*n; i++ {
				re[p.driverOp(i)]++
			}
			size := n * (reFuzzRatio + 1)
			jobs, fuzz := map[int]int{}, map[int]int{}
			for i := b * size; i < (b+1)*size; i++ {
				if jo := p.jobOpAt(i); jo.fuzz {
					fuzz[jo.driver]++
				} else {
					jobs[jo.driver]++
				}
			}
			for d := range n {
				if re[d] != 1 || jobs[d] != reFuzzRatio || fuzz[d] != 1 {
					t.Fatalf("seed %d block %d driver %d: %d ops, %d jobs, %d fuzz jobs", seed, b, d, re[d], jobs[d], fuzz[d])
				}
			}
		}
	}
}
