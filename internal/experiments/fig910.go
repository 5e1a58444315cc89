package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Fig910Result is Case 4: a YCSB mFlow contends with antagonist CXL mFlows
// from other cores whose aggregate traffic sweeps 20%..100% of saturation.
// Figure 9 reports throughput, per-component CXL-induced stall, and
// CHA/FlexBus latency; Figure 10 reports queue lengths.
type Fig910Result struct {
	Throughput *report.Series // YCSB operations completed per step
	Stall      *report.Series // per-component stall (Figure 9 b-f)
	Latency    *report.Series // CHA and FlexBus+MC latency (Figure 9 g-h)
	Queues     *report.Series // per-component queue length (Figure 10)
	Culprits   []string       // PFAnalyzer culprit at each load step
}

// RunFig910 reproduces Figures 9 and 10.
func RunFig910(cfg sim.Config, quick bool) *Fig910Result {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)
	epoch := sim.Cycles(2_000_000)
	if quick {
		epoch = 800_000
	}

	out := &Fig910Result{
		Throughput: &report.Series{
			Title: "Figure 9-a: YCSB throughput vs antagonist CXL load",
			XName: "cxl_load", Names: []string{"ops"},
		},
		Stall: &report.Series{
			Title: "Figure 9-b..f: YCSB CXL-induced stall cycles",
			XName: "cxl_load",
			Names: []string{"SB", "L1D", "LFB", "L2", "LLC"},
		},
		Latency: &report.Series{
			Title: "Figure 9-g/h: uncore latency under contention (cycles)",
			XName: "cxl_load", Names: []string{"CHA", "FlexBus+MC"},
		},
		Queues: &report.Series{
			Title: "Figure 10: YCSB queue lengths under contention",
			XName: "cxl_load",
			Names: []string{"L1D", "LFB", "L2", "LLC", "FlexBus+MC DRd", "FlexBus+MC HWPF"},
		},
	}

	loads := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	type row struct {
		ops     float64
		stall   []float64
		latency []float64
		queues  []float64
		culprit string
	}
	rows := make([]row, len(loads))
	runIndexed("fig910", len(loads), func(i int) {
		load := loads[i]
		rig := NewRig(RigOptions{Config: opt.cfg})
		m := rig.Machine

		ycsbReg := rig.Alloc(opt.ws, 2)
		ycsbApp, _ := workload.Lookup("YCSB-C")
		counting := workload.NewCounting(ycsbApp.Generator(ycsbReg, 21))
		m.Attach(0, counting)

		// Antagonists: streaming CXL mFlows on eight other cores, their
		// intensity modulated by think time so aggregate traffic scales
		// with the load factor.
		think := uint16((1.0 - load) * 100)
		for c := 1; c <= 8; c++ {
			reg := rig.Alloc(opt.ws/2, 2)
			g := workload.NewStream(reg, think, 0.1, uint64(c*7))
			m.Attach(c, g)
		}

		cap := core.NewCapturer(m)
		m.Run(epoch)
		s := cap.Capture()

		plan := core.NewPlan(cap.Index(), []int{0}, 0)
		var bd core.StallBreakdown
		plan.EstimateStallsInto(s, k, &bd)
		rows[i].ops = float64(counting.Total())
		rows[i].stall = []float64{
			bd.Component(core.CompSB), bd.Component(core.CompL1D), bd.Component(core.CompLFB),
			bd.Component(core.CompL2), bd.Component(core.CompLLC)}

		// Uncore latencies from residency/throughput (socket scope).
		chaLat := 0.0
		if ins := s.CHASum(pmu.TORInsertsIA[pmu.IAAll]); ins > 0 {
			chaLat = s.CHASum(pmu.TOROccupancyIA[pmu.IAAll]) / ins
		}
		flexLat := 0.0
		if ins := s.M2P(0, pmu.M2PRxInserts); ins > 0 {
			flexLat = s.M2P(0, pmu.M2PRxOccupancy)/ins + k.LinkTransit
		}
		rows[i].latency = []float64{chaLat, flexLat}

		var qr core.QueueReport
		plan.AnalyzeQueuesInto(s, k, &qr)
		rows[i].queues = []float64{
			qr.Component(core.CompL1D), qr.Component(core.CompLFB), qr.Component(core.CompL2),
			qr.Component(core.CompLLC),
			qr.Q[core.PathDRd][core.CompFlexBusMC],
			qr.Q[core.PathHWPF][core.CompFlexBusMC]}
		rows[i].culprit = qr.CulpritPath.String() + " on " + qr.CulpritComp.String()
		s.Release()
	})
	for i, load := range loads {
		out.Throughput.Add(load, rows[i].ops)
		out.Stall.Add(load, rows[i].stall...)
		out.Latency.Add(load, rows[i].latency...)
		out.Queues.Add(load, rows[i].queues...)
		out.Culprits = append(out.Culprits, rows[i].culprit)
	}
	return out
}

// ThroughputDrop returns the YCSB throughput loss from the lightest to the
// heaviest antagonist load (the paper reports −77.4% on average).
func (r *Fig910Result) ThroughputDrop() float64 {
	n := len(r.Throughput.X)
	if n < 2 || r.Throughput.Y[0][0] == 0 {
		return 0
	}
	return 1 - r.Throughput.Y[0][n-1]/r.Throughput.Y[0][0]
}

// FlexLatencyGrowth returns the FlexBus+MC latency growth across the sweep
// (the paper reports 4.3x).
func (r *Fig910Result) FlexLatencyGrowth() float64 {
	n := len(r.Latency.X)
	if n < 2 || r.Latency.Y[1][0] == 0 {
		return 0
	}
	return r.Latency.Y[1][n-1] / r.Latency.Y[1][0]
}
