// Quickstart: reverse engineer one closed-source binary NIC driver
// and look at what RevNIC produces.
//
//	go run ./examples/quickstart
//
// The example takes the bundled RTL8029 (NE2000) Windows driver
// binary — RevNIC sees only its bytes — exercises it with symbolic
// hardware, and prints the coverage report, the recovered function
// inventory, and the beginning of the synthesized C code.
package main

import (
	"fmt"
	"log"
	"strings"

	"revnic/internal/core"
	"revnic/internal/drivers"
)

func main() {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Input: %s (%s), %d bytes of opaque binary at base %#x\n\n",
		info.Name, info.File, info.Program.Size(), info.Program.Base)

	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info), // PCI IDs + I/O window from the device manager
		DriverName: info.Name,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Exploration: %d translation blocks executed, %d path forks, %d polling-loop kills\n",
		rev.Exploration.ExecutedBlocks, rev.Exploration.ForkCount, rev.Exploration.KilledLoops)
	fmt.Printf("Coverage: %.1f%% of %d ground-truth basic blocks\n\n",
		100*rev.Coverage(), rev.GroundTruth.NumBlocks())

	st := rev.Graph.ComputeStats()
	fmt.Printf("Recovered %d functions (%d fully automated, %d need template integration):\n",
		st.Funcs, st.AutomatedFuncs, st.ManualFuncs)
	for _, f := range rev.Synth.Funcs {
		role := f.Role
		if role == "" {
			role = "-"
		}
		ret := "void"
		if f.HasReturn {
			ret = "uint32_t"
		}
		fmt.Printf("  %-22s role=%-11s class=%-6s params=%d ret=%s\n",
			f.Name, role, f.Class, f.NumParams, ret)
	}

	fmt.Println("\nFirst lines of the synthesized C code:")
	lines := strings.SplitN(rev.Synth.Code, "\n", 40)
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  " + l)
	}
	fmt.Println("  ...")
}
