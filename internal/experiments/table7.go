package experiments

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Table7Result is Case 1: PFBuilder's path classification for
// 649.fotonik3d_s and two snapshots of 602.gcc_s (Table 7).
type Table7Result struct {
	Labels []string // "FOTS", "GCCS-s1", "GCCS-s2"
	Maps   []*core.PathMap

	// Analysis headlines mirroring §5.2.
	FOTSHotCore    core.PathType
	FOTSHotUncore  core.PathType
	FOTSUncoreHWPF float64 // HWPF share of uncore accesses
	GCCSReqGrowth  float64 // total core-request growth s2/s1
}

// RunTable7 reproduces Table 7: both applications run with their working
// sets on CXL memory; PFBuilder classifies the per-path hit distribution
// from SB down to CXL memory.
func RunTable7(cfg sim.Config, quick bool) *Table7Result {
	opt := defaultChar(cfg, quick)

	// FOTS: one long stencil epoch.
	fotsApp, _ := workload.Lookup("FOTS")
	sFots := runPlacement(opt, fotsApp, 2)
	pmFots := &core.PathMap{}
	core.NewPlan(sFots.Index(), []int{0}, 0).BuildPathMapInto(sFots, pmFots)

	// GCCS: phased; profile epochs and pick snapshots from two phases.
	rig := NewRig(RigOptions{Config: opt.cfg})
	reg := rig.Alloc(opt.ws, 2)
	gccApp, _ := workload.Lookup("GCCS")
	p, err := core.NewProfiler(core.Spec{
		Machine:     rig.Machine,
		Apps:        []core.AppRun{{Label: "GCCS", Core: 0, Gen: gccApp.Generator(reg, 42)}},
		EpochCycles: opt.maxCycles / 64,
		Epochs:      16,
	})
	if err != nil {
		panic(err)
	}
	res, err := p.Run()
	if err != nil {
		panic(err)
	}
	// Pick the epoch with the fewest core requests as s1 and the most as
	// s2 — the paper compares a quiet and a busy phase.
	reqs := func(pm *core.PathMap) float64 {
		return pm.PathTotal(core.PathDRd) + pm.PathTotal(core.PathRFO) + pm.PathTotal(core.PathDWr)
	}
	lo, hi := 0, 0
	for i, r := range res {
		if reqs(r.PathMaps["GCCS"]) < reqs(res[lo].PathMaps["GCCS"]) {
			lo = i
		}
		if reqs(r.PathMaps["GCCS"]) > reqs(res[hi].PathMaps["GCCS"]) {
			hi = i
		}
	}
	pmS1 := res[lo].PathMaps["GCCS"]
	pmS2 := res[hi].PathMaps["GCCS"]

	out := &Table7Result{
		Labels: []string{"FOTS", "GCCS-s1", "GCCS-s2"},
		Maps:   []*core.PathMap{pmFots, pmS1, pmS2},
	}
	out.FOTSHotCore = pmFots.HotPathCore()
	out.FOTSHotUncore, out.FOTSUncoreHWPF = pmFots.HotPathUncore()
	if lowReqs := reqs(pmS1); lowReqs > 0 {
		out.GCCSReqGrowth = reqs(pmS2) / lowReqs
	}
	return out
}

// Table renders the Table 7 grid: levels as rows, (path x workload) as
// columns.
func (r *Table7Result) Table() *report.Table {
	t := &report.Table{
		Title: "Table 7: PFBuilder path classification over CXL memory",
		Cols:  []string{"Hit Location"},
	}
	for _, p := range core.Paths() {
		for _, lbl := range r.Labels {
			t.Cols = append(t.Cols, fmt.Sprintf("%s %s", p, lbl))
		}
	}
	for _, l := range core.Levels() {
		row := []string{l.String()}
		any := false
		for _, p := range core.Paths() {
			for _, pm := range r.Maps {
				v := pm.Load[p][l]
				if v != 0 {
					any = true
				}
				row = append(row, report.Num(v))
			}
		}
		if any {
			t.AddRow(row...)
		}
	}
	return t
}
