package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Fig78Result is Case 3: a local mFlow and a CXL mFlow share one core while
// the CXL traffic share sweeps 20%..100%.  Figure 7 reports CXL-induced
// stall cycles per component; Figure 8 reports component queue lengths.
type Fig78Result struct {
	Loads  []float64 // CXL traffic share per step
	Stall  *report.Series
	Queues *report.Series
}

// RunFig78 reproduces Figures 7 and 8.
func RunFig78(cfg sim.Config, quick bool) *Fig78Result {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)

	out := &Fig78Result{
		Stall: &report.Series{
			Title: "Figure 7: CXL-induced stall cycles vs CXL traffic share",
			XName: "cxl_share",
			Names: []string{"SB", "L1D", "LFB", "L2", "LLC"},
		},
		Queues: &report.Series{
			Title: "Figure 8: component queue length vs CXL traffic share",
			XName: "cxl_share",
			Names: []string{"L1D", "LFB", "L2", "FlexBus+MC", "CHA"},
		},
	}

	shares := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	stallRows := make([][]float64, len(shares))
	queueRows := make([][]float64, len(shares))
	runIndexed("fig78", len(shares), func(i int) {
		share := shares[i]
		rig := NewRig(RigOptions{Config: opt.cfg})
		local := rig.Alloc(opt.ws/2, 0)
		cxl := rig.Alloc(opt.ws/2, 2)
		// One core, two mFlows: a local stream and a CXL stream mixed at
		// the requested CXL share.
		gl := workload.NewStream(local, 2, 0.1, 11)
		gl.Reuse = 4
		gc := workload.NewStream(cxl, 2, 0.1, 13)
		gc.Reuse = 4
		gen := workload.NewLimit(workload.NewMix(gl, gc, share), opt.ops)

		cap := core.NewCapturer(rig.Machine)
		rig.Machine.Attach(0, gen)
		deadline := rig.Machine.Now() + opt.maxCycles
		for rig.Machine.Core(0).Running() && rig.Machine.Now() < deadline {
			rig.Machine.Run(500_000)
		}
		s := cap.Capture()

		plan := core.NewPlan(cap.Index(), []int{0}, 0)
		var bd core.StallBreakdown
		plan.EstimateStallsInto(s, k, &bd)
		stallRows[i] = []float64{
			bd.Component(core.CompSB), bd.Component(core.CompL1D), bd.Component(core.CompLFB),
			bd.Component(core.CompL2), bd.Component(core.CompLLC)}

		var qr core.QueueReport
		var meas [core.CompCount]float64
		plan.AnalyzeQueuesInto(s, k, &qr)
		plan.MeasuredQueuesInto(s, &meas)
		queueRows[i] = []float64{
			qr.Component(core.CompL1D), meas[core.CompLFB], qr.Component(core.CompL2),
			meas[core.CompFlexBusMC], meas[core.CompCHA]}
		s.Release()
	})
	for i, share := range shares {
		out.Stall.Add(share, stallRows[i]...)
		out.Queues.Add(share, queueRows[i]...)
		out.Loads = append(out.Loads, share)
	}
	return out
}

// CoreStallGrowth returns the ratio of the summed in-core CXL-induced
// stall at full CXL share versus the 20% point — the paper reports
// 1.7x-2.4x growth across SB/L1D/LFB/L2/LLC.
func (r *Fig78Result) CoreStallGrowth() float64 {
	if len(r.Stall.X) < 2 {
		return 0
	}
	first, last := 0.0, 0.0
	for i := range r.Stall.Names {
		first += r.Stall.Y[i][0]
		last += r.Stall.Y[i][len(r.Stall.X)-1]
	}
	if first == 0 {
		return 0
	}
	return last / first
}
