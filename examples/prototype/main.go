// Prototype: the experiment of the paper's Figure 12a — closed-loop
// clients hammer the store with YCSB-A zipfian writes while chunk
// flushes compete for bandwidth-modelled SSDs, all on a virtual clock.
// Policies that generate less GC and padding traffic hold the engine
// and the devices for less time per user write.
package main

import (
	"fmt"
	"log"
	"time"

	"adapt"
)

func main() {
	const blocks = 32 << 10

	fmt.Printf("%-8s %8s %14s %8s %10s\n", "policy", "clients", "ops/s", "WA", "elapsed")
	for _, clients := range []int{1, 4, 8} {
		for _, policy := range []string{adapt.PolicySepGC, adapt.PolicySepBIT, adapt.PolicyADAPT} {
			res, err := adapt.RunPrototype(adapt.PrototypeConfig{
				Simulator: adapt.SimulatorConfig{
					UserBlocks: blocks,
					Policy:     policy,
				},
				Clients:     clients,
				Ops:         8 * blocks,
				Theta:       0.99,
				Fill:        true, // start at full utilization: GC competes for bandwidth
				ServiceTime: 50 * time.Microsecond,
				QueueDepth:  8,
				Seed:        1,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s %8d %14.0f %8.3f %10v\n",
				policy, clients, res.OpsPerSec, res.WA, res.Elapsed.Round(time.Millisecond))
		}
	}

	fmt.Println("\nmemory footprint (warmed, YCSB-A):")
	fmt.Printf("%-10s %14s %14s\n", "blocks", "sepbit", "adapt")
	for _, b := range []int64{16 << 10, 64 << 10, 256 << 10} {
		sep, err := adapt.PolicyFootprintBytes(adapt.PolicySepBIT, b, b)
		if err != nil {
			log.Fatal(err)
		}
		ad, err := adapt.PolicyFootprintBytes(adapt.PolicyADAPT, b, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %13dB %13dB (+%.1f%%)\n", b, sep, ad,
			100*float64(ad-sep)/float64(sep))
	}
}
