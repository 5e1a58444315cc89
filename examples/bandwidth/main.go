// Bandwidth: the paper's Case 5 as an API walkthrough.  Four streaming
// instances with different intensities contend for one CXL device;
// PathFinder infers each one's bandwidth share from PFBuilder's CXL
// request frequencies — the Pearson correlation against the real
// application-level bandwidth is ~1 under FlexBus saturation.
package main

import (
	"fmt"
	"log"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/sim"
	"pathfinder/internal/tsdb"
	"pathfinder/internal/workload"
)

func main() {
	cfg := sim.SPR()
	cfg.LLCSize /= 4
	cfg.LLCSlices /= 4
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 16 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 16 << 30},
	})
	machine := sim.New(cfg, as)
	k := core.ConstsFor(cfg)

	const epoch = 6_000_000
	thinks := []uint16{24, 16, 8, 0}
	gens := make([]*workload.Counting, 4)
	for i := range gens {
		reg, err := as.Alloc(16<<20, mem.Fixed(1))
		if err != nil {
			log.Fatal(err)
		}
		st := workload.NewStream(workload.Region{Base: reg.Base, Size: reg.Size},
			thinks[i], 0.25, uint64(i+1))
		st.Reuse = 2
		gens[i] = workload.NewCounting(st)
		machine.Attach(i, gens[i])
	}

	cap := core.NewCapturer(machine)
	machine.Run(epoch)
	snap := cap.Capture()

	seconds := float64(epoch) / (cfg.GHz * 1e9)
	var bw, freq []float64
	var pm core.PathMap
	fmt.Println("instance | app bandwidth (MB/s) | PFBuilder CXL req/s")
	for i, g := range gens {
		mbps := float64(g.Loads+g.Stores) * 64 / seconds / 1e6
		core.NewPlan(cap.Index(), []int{i}, 0).BuildPathMapInto(snap, &pm)
		f := pm.CXLTraffic() / seconds
		bw = append(bw, mbps)
		freq = append(freq, f)
		fmt.Printf("  MBW-%d  | %16.0f     | %14.2e\n", i+1, mbps, f)
	}

	r, err := tsdb.Pearson(freq, bw)
	if err != nil {
		log.Fatal(err)
	}
	var qr core.QueueReport
	core.NewPlan(cap.Index(), nil, 0).AnalyzeQueuesInto(snap, k, &qr)
	fmt.Printf("\nPearson(request frequency, bandwidth) = %.3f\n", r)
	fmt.Printf("PFAnalyzer culprit: %v on %v\n", qr.CulpritPath, qr.CulpritComp)
	fmt.Println("=> when the culprit sits at FlexBus+MC, request frequency predicts bandwidth share")
}
