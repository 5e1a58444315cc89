package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/tma"
	"pathfinder/internal/workload"
)

// BaselineRow contrasts TMA's verdict with PathFinder's for one placement.
type BaselineRow struct {
	Placement      string
	TMABottleneck  string
	TMADRAMBound   float64
	PFCulprit      string
	PFCXLFraction  float64 // PFEstimator's CXL share of offcore waiting
	PFTopComponent string  // component with the largest CXL-induced stall
}

// BaselineResult is the TMA-vs-PathFinder comparison: the same workload on
// local versus CXL memory, analyzed by both tools.  TMA reports "DRAM
// bound" in both cases — it cannot tell which device is responsible —
// while PathFinder separates the placements cleanly (§2.3's argument for
// building an end-to-end profiler).
type BaselineResult struct {
	Rows []BaselineRow
}

// RunTMABaseline runs the comparison with a pointer-chase workload (the
// most memory-bound shape) on each placement.
func RunTMABaseline(cfg sim.Config, quick bool) *BaselineResult {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)
	cases := []struct {
		name string
		node mem.NodeID
	}{
		{"local DDR", 0},
		{"CXL Type-3", 2},
	}
	out := &BaselineResult{Rows: make([]BaselineRow, len(cases))}
	runIndexed("baseline", len(cases), func(ci int) {
		tc := cases[ci]
		rig := NewRig(RigOptions{Config: opt.cfg})
		reg := rig.Alloc(opt.ws, tc.node)
		cap := core.NewCapturer(rig.Machine)
		rig.Machine.Attach(0, workload.NewLimit(
			workload.NewPointerChase(reg, 2, 17), opt.ops/4))
		deadline := rig.Machine.Now() + opt.maxCycles
		for rig.Machine.Core(0).Running() && rig.Machine.Now() < deadline {
			rig.Machine.Run(500_000)
		}
		s := cap.Capture()

		td := tma.Analyze(s, []int{0})
		plan := core.NewPlan(cap.Index(), []int{0}, 0)
		var bd core.StallBreakdown
		var qr core.QueueReport
		plan.EstimateStallsInto(s, k, &bd)
		plan.AnalyzeQueuesInto(s, k, &qr)

		topName, topV := "none (no CXL-induced stall)", 0.0
		for _, c := range core.Components() {
			if v := bd.Component(c); v > topV {
				topName, topV = c.String(), v
			}
		}
		out.Rows[ci] = BaselineRow{
			Placement:      tc.name,
			TMABottleneck:  td.Bottleneck(),
			TMADRAMBound:   td.L3.DRAMBound,
			PFCulprit:      qr.CulpritPath.String() + " on " + qr.CulpritComp.String(),
			PFCXLFraction:  plan.CXLWaitShare(s),
			PFTopComponent: topName,
		}
		s.Release()
	})
	return out
}

// Table renders the comparison.
func (r *BaselineResult) Table() *report.Table {
	t := &report.Table{
		Title: "Baseline: Top-Down Analysis vs PathFinder on a memory-bound chase",
		Cols: []string{"placement", "TMA verdict", "TMA DRAM-bound",
			"PF CXL share of waiting", "PF top stall component", "PF culprit"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Placement, row.TMABottleneck, report.Pct(row.TMADRAMBound),
			report.Pct(row.PFCXLFraction), row.PFTopComponent, row.PFCulprit)
	}
	return t
}
