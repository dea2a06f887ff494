package revnic_test

// The fuzz half of the determinism ledger: one golden row per corpus
// device × fuzz seed × planted bug, holding the sha256 of the
// difffuzz.Fuzz report JSON at budget 64. Every row must repeat
// exactly at workers 1 and 2. A change to the fuzzer's schedule
// stream, coverage keys, oracle or minimizer regenerates it:
//
//	go test -run FuzzLedger -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"revnic/internal/difffuzz"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

const fuzzLedgerPath = "testdata/fuzz_ledger.json"

// fuzzLedgerSeeds are the fuzz seeds the ledger pins.
var fuzzLedgerSeeds = []int64{1, 2}

// fuzzLedgerEntry is one row of the fuzz ledger.
type fuzzLedgerEntry struct {
	Key          string `json:"key"`
	ReportSHA256 string `json:"report_sha256"`
}

// fuzzLedgerRun fuzzes every device × plant × seed at the given worker
// count and returns the rows in a fixed order. A plant that does not
// apply to a device (PlantBug fails on its recovered graph) has no
// row.
func fuzzLedgerRun(t *testing.T, workers int) []fuzzLedgerEntry {
	t.Helper()
	var out []fuzzLedgerEntry
	for _, info := range drivers.Corpus() {
		for _, plant := range append([]string{""}, difffuzz.PlantKinds...) {
			h, err := difffuzz.NewHarness(info.Name, template.Windows, plant)
			if err != nil {
				if plant == "" {
					t.Fatalf("%s: %v", info.Name, err)
				}
				continue
			}
			for _, seed := range fuzzLedgerSeeds {
				rep, err := difffuzz.Fuzz(h, difffuzz.Config{
					Device: info.Name, Seed: seed, Budget: 64, Workers: workers, Plant: plant,
				})
				if err != nil {
					t.Fatalf("%s/seed=%d/plant=%q: %v", info.Name, seed, plant, err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				out = append(out, fuzzLedgerEntry{
					Key:          fmt.Sprintf("%s/seed=%d/plant=%s", info.Name, seed, plant),
					ReportSHA256: hex.EncodeToString(sum[:]),
				})
			}
		}
	}
	return out
}

// TestFuzzLedger checks the fuzz ledger at workers 1 and 2.
func TestFuzzLedger(t *testing.T) {
	got := fuzzLedgerRun(t, 1)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fuzzLedgerPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(fuzzLedgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []fuzzLedgerEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", fuzzLedgerPath, err)
	}
	for _, run := range []struct {
		label string
		got   []fuzzLedgerEntry
	}{{"workers=1", got}, {"workers=2", fuzzLedgerRun(t, 2)}} {
		if len(want) != len(run.got) {
			t.Fatalf("%s: fuzz ledger has %d entries, run produced %d (regenerate with -update)", run.label, len(want), len(run.got))
		}
		for i := range want {
			if want[i] != run.got[i] {
				t.Errorf("%s: fuzz ledger entry differs\n want %+v\n got  %+v", run.label, want[i], run.got[i])
			}
		}
	}
}
