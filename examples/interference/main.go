// Interference: the paper's Case 3 as an API walkthrough.  One core runs a
// local mFlow and a CXL mFlow mixed at increasing CXL shares; PathFinder's
// estimator and analyzer show the in-core stall growing even though the
// FlexBus stays uncongested — the back-propagated interference signature.
package main

import (
	"fmt"
	"log"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

func buildMachine() (*sim.Machine, *mem.AddressSpace) {
	cfg := sim.SPR()
	cfg.LLCSize /= 4
	cfg.LLCSlices /= 4
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 16 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 16 << 30},
	})
	return sim.New(cfg, as), as
}

func main() {
	fmt.Println("CXL share | in-core CXL stall | LFB queue | FlexBus queue | culprit")
	for _, share := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		machine, as := buildMachine()
		k := core.ConstsFor(machine.Config())

		localReg, err := as.Alloc(32<<20, mem.Fixed(0))
		if err != nil {
			log.Fatal(err)
		}
		cxlReg, err := as.Alloc(32<<20, mem.Fixed(1))
		if err != nil {
			log.Fatal(err)
		}
		mkStream := func(r mem.Region, seed uint64) workload.Generator {
			g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 2, 0.1, seed)
			g.Reuse = 4
			return g
		}
		// Two mFlows on one core: Mix interleaves them deterministically.
		gen := workload.NewMix(mkStream(localReg, 3), mkStream(cxlReg, 5), share)

		cap := core.NewCapturer(machine)
		machine.Attach(0, gen)
		machine.Run(6_000_000)
		snap := cap.Capture()

		plan := core.NewPlan(cap.Index(), []int{0}, 0)
		var bd core.StallBreakdown
		var qr core.QueueReport
		var meas [core.CompCount]float64
		plan.EstimateStallsInto(snap, k, &bd)
		plan.MeasuredQueuesInto(snap, &meas)
		plan.AnalyzeQueuesInto(snap, k, &qr)
		inCore := 0.0
		for _, c := range []core.Component{core.CompSB, core.CompL1D,
			core.CompLFB, core.CompL2, core.CompLLC} {
			for _, p := range core.Paths() {
				inCore += bd.Stall[p][c]
			}
		}

		fmt.Printf("   %3.0f%%   | %14.0f    | %7.2f   | %9.2f     | %v on %v\n",
			share*100, inCore, meas[core.CompLFB], meas[core.CompFlexBusMC],
			qr.CulpritPath, qr.CulpritComp)
	}
}
