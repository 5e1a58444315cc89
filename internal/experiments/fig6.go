package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// fig6Apps are the six applications of Figure 6.
var fig6Apps = []string{"FFT", "RAY", "BARN", "FRE", "BFS", "RADIX"}

// Fig6Result is Case 2: the PFEstimator breakdown of CXL-induced stall
// cycles across SB, L1D, LFB, L2, LLC, CHA, FlexBus+MC and the CXL DIMM,
// per path, per application.
type Fig6Result struct {
	Apps   []string
	Stalls []*core.StallBreakdown
}

// RunFig6 runs each application with its working set on CXL memory and
// back-propagates the stall attribution.
func RunFig6(cfg sim.Config, quick bool) *Fig6Result {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)
	out := &Fig6Result{Apps: fig6Apps,
		Stalls: make([]*core.StallBreakdown, len(fig6Apps))}
	runIndexed("fig6", len(fig6Apps), func(i int) {
		app, ok := workload.Lookup(fig6Apps[i])
		if !ok {
			panic("experiments: unknown app " + fig6Apps[i])
		}
		s := runPlacement(opt, app, 2)
		out.Stalls[i] = &core.StallBreakdown{}
		core.NewPlan(s.Index(), []int{0}, 0).EstimateStallsInto(s, k, out.Stalls[i])
	})
	return out
}

// Table renders per-app, per-path component shares (the Figure 6 bars).
func (r *Fig6Result) Table() *report.Table {
	t := &report.Table{
		Title: "Figure 6: CXL-induced stall breakdown (share per component)",
		Cols:  []string{"app", "path"},
	}
	for _, c := range core.Components() {
		t.Cols = append(t.Cols, c.String())
	}
	for i, app := range r.Apps {
		bd := r.Stalls[i]
		for _, p := range core.Paths() {
			if bd.Total(p) == 0 {
				continue
			}
			row := []string{app, p.String()}
			for _, c := range core.Components() {
				row = append(row, report.Pct(bd.Share(p, c)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// DownstreamShare returns the average FlexBus+MC + CXL DIMM share of the
// DRd stall across apps — the paper's headline that the uncore dominates.
func (r *Fig6Result) DownstreamShare() float64 {
	var sum float64
	n := 0
	for _, bd := range r.Stalls {
		if bd.Total(core.PathDRd) == 0 {
			continue
		}
		sum += bd.Share(core.PathDRd, core.CompFlexBusMC) + bd.Share(core.PathDRd, core.CompCXLDIMM)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
