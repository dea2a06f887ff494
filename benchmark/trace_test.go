package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	t0 := time.Now()
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{epoch: t0}
	add := func(name string, parent, from, to int) int {
		tr.record(name, 7, parent, at(from), at(to))
		return len(tr.spans)
	}
	root := add("op", 0, 0, 100)
	a := add("a", root, 10, 30)    // overlaps b
	add("b", root, 20, 50)         // union with a: [10, 50)
	add("late", root, 90, 120)     // only [90, 100) lies inside op
	add("outside", root, 150, 160) // covers none of op
	add("a.child", a, 15, 20)      // nested one level down

	self := selfTimes(tr.finished())
	for id, want := range map[int]time.Duration{
		root: 50 * time.Millisecond, // 100 - [10,50) - [90,100)
		a:    15 * time.Millisecond, // 20 - [15,20)
		3:    30 * time.Millisecond,
		4:    30 * time.Millisecond,
		5:    10 * time.Millisecond,
		6:    5 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %d self time = %v, want %v", id, self[id], want)
		}
	}

	// Two spans of one name add up; the table orders by self time.
	add("a", root, 60, 70)
	lts := layerTimes(tr.finished())
	if lts[0].name != "op" || lts[0].self != 40*time.Millisecond {
		t.Errorf("largest layer = %+v, want op with 40ms", lts[0])
	}
	if got := meanSelfMS(lts, "a"); got != 12.5 {
		t.Errorf("mean self time of a = %vms, want 12.5ms (15 and 10)", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	tr.record("y", 1, id, time.Now(), time.Now())
	if id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
}
