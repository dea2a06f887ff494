package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Op; Parent is the ID of the enclosing span (0 for an operation's
// root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	start  time.Time
	end    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// path is the same in both modes bar the clock reads.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere, such as
// the job service's own submitted/started/finished stamps.
func (t *tracer) record(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, start: start, end: end})
	t.mu.Unlock()
}

// finished returns the closed spans with their offsets from the
// tracer's start filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		s.Start, s.End = ms(s.start.Sub(t.epoch)), ms(s.end.Sub(t.epoch))
		out = append(out, s)
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// and may start before or end after their parent; only the covered
// part inside the parent counts once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		var iv [][2]time.Time
		for _, c := range kids[s.ID] {
			a, b := c.start, c.end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				iv = append(iv, [2]time.Time{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
		var covered time.Duration
		var curA, curB time.Time
		for i, x := range iv {
			if i == 0 || x[0].After(curB) {
				covered += curB.Sub(curA)
				curA, curB = x[0], x[1]
			} else if x[1].After(curB) {
				curB = x[1]
			}
		}
		covered += curB.Sub(curA)
		self[s.ID] = s.end.Sub(s.start) - covered
	}
	return self
}

// layerTime is the self time one span name accumulated.
type layerTime struct {
	name  string
	spans int
	self  time.Duration
}

// layerTimes sums self time per span name, largest first.
func layerTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
		}
		lt.spans++
		lt.self += self[s.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// meanSelfMS is the mean self time, in milliseconds, of the spans
// named name.
func meanSelfMS(lts []layerTime, name string) float64 {
	for _, lt := range lts {
		if lt.name == name && lt.spans > 0 {
			return ms(lt.self) / float64(lt.spans)
		}
	}
	return 0
}

// printLayerTable writes the per-layer self-time table of one traced
// window.
func printLayerTable(w io.Writer, workload string, lts []layerTime, ops int) {
	var total time.Duration
	for _, lt := range lts {
		total += lt.self
	}
	fmt.Fprintf(w, "per-layer self time, workload %s, %d ops:\n", workload, ops)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %7s\n", "span", "count", "self_ms", "ms/op", "share")
	for _, lt := range lts {
		share := 0.0
		if total > 0 {
			share = 100 * float64(lt.self) / float64(total)
		}
		fmt.Fprintf(w, "  %-22s %8d %12.1f %12.3f %6.1f%%\n",
			lt.name, lt.spans, ms(lt.self), ms(lt.self)/float64(max(ops, 1)), share)
	}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return f.Close()
}
