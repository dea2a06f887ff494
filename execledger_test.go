package revnic_test

// The execution half of the determinism ledger: what the concrete CPU
// feeds into outputs when it runs the original binary and the
// synthesized driver. One row per NIC driver × side × payload holds
// the platform.Measure* path length and port I/O count behind Figures
// 2-7, and one row per corpus driver holds the §5.2 equivalence check
// counts and the Table 2 feature matrix. A change to either side's
// execution semantics regenerates it:
//
//	go test -run ExecLedger -update .

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/platform"
	"revnic/internal/symexec"
	"revnic/internal/template"
)

const execLedgerPath = "testdata/exec_ledger.json"

// execLedgerPayloads are the UDP payload sizes the measure rows pin.
var execLedgerPayloads = []int{64, 512, 1472}

// measureRow is one platform.Measure* result.
type measureRow struct {
	Key    string `json:"key"`
	Instrs int64  `json:"instrs"`
	IOOps  int64  `json:"io_ops"`
}

// equivalenceRow is one core.CheckEquivalence trace comparison and
// the Table 2 feature matrix it reports.
type equivalenceRow struct {
	Key             string `json:"key"`
	OrigOps         int    `json:"orig_ops"`
	SynthOps        int    `json:"synth_ops"`
	IOTraceEqual    bool   `json:"io_trace_equal"`
	FirstDivergence string `json:"first_divergence"`
	InitShutdown    bool   `json:"init_shutdown"`
	SendReceive     bool   `json:"send_receive"`
	Multicast       bool   `json:"multicast"`
	GetSetMAC       bool   `json:"get_set_mac"`
	Promiscuous     bool   `json:"promiscuous"`
	FullDuplex      bool   `json:"full_duplex"`
	DMA             string `json:"dma"`
	WakeOnLAN       string `json:"wake_on_lan"`
	LED             string `json:"led"`
}

type execLedger struct {
	Measure     []measureRow     `json:"measure"`
	Equivalence []equivalenceRow `json:"equivalence"`
}

// execLedgerRun reverse engineers every corpus driver once and
// returns the ledger rows in a fixed order.
func execLedgerRun(t *testing.T) execLedger {
	t.Helper()
	var out execLedger
	nics := map[string]bool{}
	for _, info := range drivers.All() {
		nics[info.Name] = true
	}
	for _, info := range drivers.Corpus() {
		rev, err := core.ReverseEngineer(info.Program, core.Options{
			Shell: core.ShellConfig(info), DriverName: info.Name,
			Engine: symexec.Config{Seed: 1, Workers: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if nics[info.Name] {
			orig, err := platform.MeasureOriginal(info, execLedgerPayloads)
			if err != nil {
				t.Fatalf("%s: original: %v", info.Name, err)
			}
			syn, err := platform.MeasureSynthesized(info, rev.Graph, template.Windows, execLedgerPayloads)
			if err != nil {
				t.Fatalf("%s: synthesized: %v", info.Name, err)
			}
			for _, side := range []struct {
				name  string
				costs map[int]platform.DriverCost
			}{{"original", orig}, {"synthesized", syn}} {
				for _, p := range execLedgerPayloads {
					out.Measure = append(out.Measure, measureRow{
						Key:    fmt.Sprintf("%s/%s/payload=%d", info.Name, side.name, p),
						Instrs: side.costs[p].Instrs,
						IOOps:  side.costs[p].IOOps,
					})
				}
			}
		}
		rep, err := core.CheckEquivalence(info, rev, template.Windows)
		if err != nil {
			t.Fatalf("%s: equivalence: %v", info.Name, err)
		}
		out.Equivalence = append(out.Equivalence, equivalenceRow{
			Key: info.Name, OrigOps: rep.OrigOps, SynthOps: rep.SynthOps,
			IOTraceEqual: rep.IOTraceEqual, FirstDivergence: rep.FirstDivergence,
			InitShutdown: rep.InitShutdown, SendReceive: rep.SendReceive,
			Multicast: rep.Multicast, GetSetMAC: rep.GetSetMAC,
			Promiscuous: rep.Promiscuous, FullDuplex: rep.FullDuplex,
			DMA: rep.DMA, WakeOnLAN: rep.WakeOnLAN, LED: rep.LED,
		})
	}
	return out
}

// TestExecLedger checks the execution ledger.
func TestExecLedger(t *testing.T) {
	got := execLedgerRun(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(execLedgerPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(execLedgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want execLedger
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", execLedgerPath, err)
	}
	if len(want.Measure) != len(got.Measure) || len(want.Equivalence) != len(got.Equivalence) {
		t.Fatalf("exec ledger has %d+%d rows, run produced %d+%d (regenerate with -update)",
			len(want.Measure), len(want.Equivalence), len(got.Measure), len(got.Equivalence))
	}
	for i := range want.Measure {
		if want.Measure[i] != got.Measure[i] {
			t.Errorf("measure row differs\n want %+v\n got  %+v", want.Measure[i], got.Measure[i])
		}
	}
	for i := range want.Equivalence {
		if want.Equivalence[i] != got.Equivalence[i] {
			t.Errorf("equivalence row differs\n want %+v\n got  %+v", want.Equivalence[i], got.Equivalence[i])
		}
	}
}
