// Port the Windows RTL8139 driver to Linux, end to end, and prove the
// port implements the same hardware protocol.
//
//	go run ./examples/port_rtl8139
//
// This is the paper's §5.1/§5.2 scenario in miniature: reverse
// engineer rtl8139.sys, instantiate the Linux template with the
// synthesized hardware code, then run the original driver and the
// Linux port against identical simulated RTL8139 chips under the same
// workload and compare every hardware I/O operation.
package main

import (
	"fmt"
	"log"
	"strings"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

func main() {
	info, err := drivers.ByName("RTL8139")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reverse engineering %s (%s)...\n", info.Name, info.File)
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  coverage %.1f%%, %d functions synthesized\n\n",
		100*rev.Coverage(), len(rev.Synth.Funcs))

	// The Linux driver source a developer would build.
	src := rev.InstantiateTemplate(template.Linux)
	fmt.Println("Instantiated Linux template (head):")
	for _, l := range strings.SplitN(src, "\n", 16)[:15] {
		fmt.Println("  " + l)
	}
	fmt.Println("  ...")

	// Equivalence: same workload on original (Windows) and port
	// (Linux), byte-compare the hardware I/O.
	fmt.Println("\nRunning original driver and Linux port under identical workloads...")
	rep, err := core.CheckEquivalence(info, rev, template.Linux)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  original:     %d hardware I/O operations\n", rep.OrigOps)
	fmt.Printf("  synthesized:  %d hardware I/O operations\n", rep.SynthOps)
	if rep.IOTraceEqual {
		fmt.Println("  I/O traces:   IDENTICAL — the port implements the same hardware protocol")
	} else {
		fmt.Printf("  I/O traces:   DIVERGED at %s\n", rep.FirstDivergence)
	}
	fmt.Printf("\nTable 2 row for %s:\n", info.Name)
	fmt.Printf("  init/shutdown=%v send/receive=%v multicast=%v mac=%v promisc=%v duplex=%v dma=%s wol=%s led=%s\n",
		rep.InitShutdown, rep.SendReceive, rep.Multicast, rep.GetSetMAC,
		rep.Promiscuous, rep.FullDuplex, rep.DMA, rep.WakeOnLAN, rep.LED)
}
