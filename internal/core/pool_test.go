package core

import (
	"reflect"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/hw"
	"revnic/internal/ir"
)

// TestReusedModelMatchesFresh drives the §5.2 workload through an
// original rig built from a ModelPool on every corpus device, closes
// the rig, and reuses the model it gave back: wired to a new line and
// memory, the model must be reflect.DeepEqual to one built fresh with
// the same wiring.
func TestReusedModelMatchesFresh(t *testing.T) {
	mac := [6]byte{0x02, 0x5E, 0x44, 0x33, 0x22, 0x11}
	for _, info := range drivers.Corpus() {
		t.Run(info.Name, func(t *testing.T) {
			var pool ModelPool
			rig, err := NewOriginalRig(info, ir.NewImage(info.Program), mac, &pool)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := driveWorkload(rig.Side, rig.Dev, makeEqOps(mac)); err != nil {
				t.Fatal(err)
			}
			used := rig.Dev
			rig.Close()
			if len(pool.free) != 1 || pool.free[0] != used {
				t.Fatalf("Close left %d models in the pool, want the rig's one", len(pool.free))
			}

			var line hw.IRQLine
			ram := hw.NewRAM()
			defer ram.Free()
			fresh, err := NewDevice(info.Name, &line, ram, mac)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(used, fresh) {
				t.Fatal("the workload left the model in power-on state: nothing to reset")
			}
			got, err := pool.device(info.Name, &line, ram, mac)
			if err != nil {
				t.Fatal(err)
			}
			if got != used {
				t.Fatal("the pool built a new model instead of reusing the pooled one")
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("reused model differs from a fresh one:\nreused %+v\nfresh  %+v", got, fresh)
			}
		})
	}
}
