// Demonstrate symbolic hardware (§3.1/§3.4): reverse engineering a
// driver for a device you do not have.
//
//	go run ./examples/symbolic_hw
//
// The example explores the SMSC 91C111 driver twice: once with
// RevNIC's symbolic hardware (every device read returns an
// unconstrained symbolic value, so every branch that depends on the
// device forks) and once against a passive concrete device that
// returns zeros — what you would get by tracing the driver against
// idle real hardware. The coverage difference is the paper's argument
// for symbolic hardware: "This exercises many more code paths than
// real hardware could."
package main

import (
	"fmt"
	"log"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/symexec"
)

func explore(info *drivers.Info, concrete bool) *core.Reversed {
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
		Engine:     symexec.Config{ConcreteHardware: concrete},
	})
	if err != nil {
		log.Fatal(err)
	}
	return rev
}

func main() {
	info, err := drivers.ByName("SMSC 91C111")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Driver: %s (%s) — no device model attached in either run\n\n", info.Name, info.File)

	sym := explore(info, false)
	conc := explore(info, true)

	fmt.Println("                         symbolic HW   passive concrete HW")
	fmt.Printf("basic-block coverage      %9.1f%%   %18.1f%%\n",
		100*sym.Coverage(), 100*conc.Coverage())
	fmt.Printf("path forks                %10d   %19d\n",
		sym.Exploration.ForkCount, conc.Exploration.ForkCount)
	fmt.Printf("blocks executed           %10d   %19d\n",
		sym.Exploration.ExecutedBlocks, conc.Exploration.ExecutedBlocks)

	// Show which interrupt-handler paths only symbolic hardware
	// reaches: the ISR branches on the device's interrupt status
	// register, which a passive device never raises.
	symISR, concISR := 0, 0
	for a := range sym.Graph.Blocks {
		if f := sym.Graph.Funcs[sym.Exploration.Entries.ISR]; f != nil {
			if _, ok := f.Blocks[a]; ok {
				symISR++
			}
		}
	}
	if f := conc.Graph.Funcs[conc.Exploration.Entries.ISR]; f != nil {
		concISR = len(f.Blocks)
	}
	fmt.Printf("ISR basic blocks reached  %10d   %19d\n", symISR, concISR)
	fmt.Println("\nWith symbolic hardware, a read of the interrupt status register returns")
	fmt.Println("an unconstrained symbol, so every cause bit (RX, TX-done, allocation)")
	fmt.Println("forks its own path — without ever inducing a real chip to raise them.")
}
