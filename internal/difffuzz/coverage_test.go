package difffuzz

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/synthdrv"
)

// TestCoverageKeysBounded checks the shape of the coverage signal on
// every corpus device: each outcome's keys are strictly increasing,
// every edge key names blocks of the recovered graph, and the keys of
// a run stay within the graph's edges plus the access pairs instead of
// growing with trace length. Unreached lists graph blocks, ascending.
func TestCoverageKeysBounded(t *testing.T) {
	for _, info := range drivers.Corpus() {
		h := harnessFor(t, info.Name, "")
		addrs := h.code.Addrs()
		var batch []Schedule
		for i := range 32 {
			batch = append(batch, generate(1, 0, i, 12, nil))
		}
		most := 0
		for _, out := range RunBatch(h, batch, 2) {
			keys := out.CovKeys
			most = max(most, len(keys))
			for i, k := range keys {
				if i > 0 && k <= keys[i-1] {
					t.Fatalf("%s: schedule %d keys not strictly increasing at %d", info.Name, out.ScheduleID, i)
				}
				if k&accessPairBit == 0 && (synthdrv.EdgeTarget(k) >= len(addrs) || k>>32 > uint64(len(addrs))) {
					t.Fatalf("%s: edge key %#x outside a graph of %d blocks", info.Name, k, len(addrs))
				}
			}
		}
		// The corpus peaks near 140 keys per schedule; a tenth of the
		// decode cap keeps the cap far from any honest outcome.
		if most > maxCovKeys/10 {
			t.Errorf("%s: %d keys in one schedule, over a tenth of the cap %d", info.Name, most, maxCovKeys)
		}
		rep, err := Fuzz(h, Config{Device: info.Name, Seed: 1, Budget: 128, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d blocks, %d unreached, %d keys, corpus %d, at most %d keys per schedule",
			info.Name, len(addrs), len(rep.Unreached), rep.CoverageKeys, rep.CorpusSize, most)
		if rep.CoverageKeys > 4*len(addrs) {
			t.Errorf("%s: %d coverage keys for %d blocks: keys grow with the traces", info.Name, rep.CoverageKeys, len(addrs))
		}
		if len(rep.Unreached) >= len(addrs) || !slices.IsSorted(rep.Unreached) {
			t.Errorf("%s: unreached %v", info.Name, rep.Unreached)
		}
		for _, a := range rep.Unreached {
			if h.Rev.Graph.Blocks[a] == nil {
				t.Errorf("%s: unreached %#x is not a recovered block", info.Name, a)
			}
		}
	}
}

// TestHostileCovKeysRejected decodes outcomes the way the coordinator
// decodes a peer's or the journal's: about a million keys must be an
// error without allocating them, and keys out of order an error too.
func TestHostileCovKeysRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString(`[{"schedule_id":1,"steps":1,"cov_keys":[`)
	for i := range 1 << 20 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i)
	}
	b.WriteString(`]}]`)
	body := []byte(b.String())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var outs []Outcome
	err := json.Unmarshal(body, &outs)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an outcome with 1M coverage keys decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting %d bytes of keys allocated %d bytes", len(body), grew)
	}

	for _, keys := range []string{`[3,2]`, `[5,5]`} {
		if err := json.Unmarshal([]byte(`[{"cov_keys":`+keys+`}]`), &outs); err == nil {
			t.Errorf("keys %s decoded", keys)
		}
	}
	if err := json.Unmarshal([]byte(`[{"cov_keys":[1,2,9223372036854775809]}]`), &outs); err != nil || len(outs[0].CovKeys) != 3 {
		t.Errorf("valid keys: %v %v", outs, err)
	}
}
