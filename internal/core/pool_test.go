package core

import (
	"reflect"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/nic"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
)

// TestReusedModelMatchesFresh runs the §5.2 workload through an
// oracle whose rigs draw their device models from a ModelPool on
// every corpus device, closes it, and reuses the two models it gave
// back: wired to a new line and memory, each must be
// reflect.DeepEqual to one built fresh with the same wiring.
func TestReusedModelMatchesFresh(t *testing.T) {
	mac := [6]byte{0x02, 0x5E, 0x44, 0x33, 0x22, 0x11}
	for _, d := range drivers.Corpus() {
		t.Run(d.Name, func(t *testing.T) {
			info, rev := reverse(t, d.Name)
			var pool ModelPool
			o, err := NewOracle(info, ir.NewImage(info.Program), synthdrv.NewCode(rev.Graph), template.Windows, mac, &pool)
			if err != nil {
				t.Fatal(err)
			}
			w := EquivalenceWorkload()
			ok := o.Init()
			for i := 0; ok && i < len(w); i++ {
				ok = o.Step(i, w[i])
			}
			o.Halt(len(w))
			if !ok || o.Mismatch != nil {
				t.Fatalf("workload stopped: %v %v %v", o.Mismatch, o.OrigErr, o.SynthErr)
			}
			used := []nic.Model{o.Synth.Dev, o.Orig.Dev}
			o.Close()
			if len(pool.free) != 2 {
				t.Fatalf("Close left %d models in the pool, want the two rigs' ones", len(pool.free))
			}

			for _, want := range used {
				var line hw.IRQLine
				ram := hw.NewRAM()
				defer ram.Free()
				fresh, err := NewDevice(info.Name, &line, ram, mac)
				if err != nil {
					t.Fatal(err)
				}
				if reflect.DeepEqual(want, fresh) {
					t.Fatal("the workload left the model in power-on state: nothing to reset")
				}
				got, err := pool.device(info.Name, &line, ram, mac)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatal("the pool built a new model instead of reusing the pooled one")
				}
				if !reflect.DeepEqual(got, fresh) {
					t.Errorf("reused model differs from a fresh one:\nreused %+v\nfresh  %+v", got, fresh)
				}
			}
		})
	}
}
