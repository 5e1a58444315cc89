package experiments

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/tsdb"
	"pathfinder/internal/workload"
)

// Fig11Result is Case 5: bandwidth partitioning among concurrent CXL
// mFlows.  When the FlexBus+MC saturates, each flow's achieved bandwidth
// tracks its CXL request frequency — the paper reports a Pearson
// correlation of 0.998 — so PFBuilder's request counts let PathFinder
// infer runtime bandwidth allocation.
type Fig11Result struct {
	Scenario   string
	Solo       []float64 // MB/s per instance running alone
	Contended  []float64 // MB/s per instance running together
	ReqFreq    []float64 // CXL requests per second per instance (contended)
	Pearson    float64
	CulpritStr string
}

// runFig11Scenario measures four instances of one shape with different
// intensities, solo and contended.  GUPS instances are multi-threaded
// (like the paper's), since a single dependent-update thread cannot reach
// FlexBus saturation.
func runFig11Scenario(opt charOptions, k core.Consts, shape string, epoch sim.Cycles) *Fig11Result {
	thinks := []uint16{24, 16, 8, 0} // intensity ladder
	gupsBatch := []int{4, 8, 16, 16}
	threads := 1
	if shape == "GUPS" {
		threads = 3
	}
	makeGens := func(rig *Rig, i int) []*workload.Counting {
		out := make([]*workload.Counting, threads)
		for th := 0; th < threads; th++ {
			reg := rig.Alloc(opt.ws/8, 2)
			seed := uint64(31 + i*4 + th)
			var g workload.Generator
			if shape == "MBW" {
				st := workload.NewStream(reg, thinks[i], 0.25, seed)
				st.Reuse = 2
				g = st
			} else {
				gu := workload.NewGUPS(reg, thinks[i]/8, 0, 0, seed)
				gu.Batch = gupsBatch[i]
				g = gu
			}
			out[th] = workload.NewCounting(g)
		}
		return out
	}
	secs := func(c sim.Cycles, cfg sim.Config) float64 { return float64(c) / (cfg.GHz * 1e9) }
	bw := func(gens []*workload.Counting, dur sim.Cycles) float64 {
		var bytes float64
		for _, g := range gens {
			bytes += float64(g.Loads+g.Stores) * 64
		}
		return bytes / secs(dur, opt.cfg) / 1e6
	}

	res := &Fig11Result{Scenario: shape}

	// Solo bandwidths: four independent rigs, fanned out.
	res.Solo = make([]float64, 4)
	runIndexed("fig11", 4, func(i int) {
		rig := NewRig(RigOptions{Config: opt.cfg})
		gens := makeGens(rig, i)
		for th, g := range gens {
			rig.Machine.Attach(th, g)
		}
		rig.Machine.Run(epoch)
		res.Solo[i] = bw(gens, epoch)
	})

	// Contended: all four instances share the CXL device.
	rig := NewRig(RigOptions{Config: opt.cfg})
	all := make([][]*workload.Counting, 4)
	for i := 0; i < 4; i++ {
		all[i] = makeGens(rig, i)
		for th, g := range all[i] {
			rig.Machine.Attach(i*threads+th, g)
		}
	}
	cap := core.NewCapturer(rig.Machine)
	rig.Machine.Run(epoch)
	s := cap.Capture()
	var pm core.PathMap
	for i := 0; i < 4; i++ {
		res.Contended = append(res.Contended, bw(all[i], epoch))
		cores := make([]int, threads)
		for th := range cores {
			cores[th] = i*threads + th
		}
		core.NewPlan(cap.Index(), cores, 0).BuildPathMapInto(s, &pm)
		res.ReqFreq = append(res.ReqFreq, pm.CXLTraffic()/secs(epoch, opt.cfg))
	}
	r, err := tsdb.Pearson(res.ReqFreq, res.Contended)
	if err == nil {
		res.Pearson = r
	}
	var qr core.QueueReport
	core.NewPlan(cap.Index(), nil, 0).AnalyzeQueuesInto(s, k, &qr)
	res.CulpritStr = qr.CulpritPath.String() + " on " + qr.CulpritComp.String()
	s.Release()
	return res
}

// RunFig11 reproduces Figure 11 with the MBW and GUPS contention scenarios.
func RunFig11(cfg sim.Config, quick bool) []*Fig11Result {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)
	epoch := sim.Cycles(6_000_000)
	if quick {
		epoch = 1_500_000
	}
	return []*Fig11Result{
		runFig11Scenario(opt, k, "MBW", epoch),
		runFig11Scenario(opt, k, "GUPS", epoch),
	}
}

// Table renders one scenario.
func (r *Fig11Result) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 11 (%s x4): bandwidth partition; Pearson(req freq, bandwidth) = %.3f; culprit: %s",
			r.Scenario, r.Pearson, r.CulpritStr),
		Cols: []string{"instance", "solo MB/s", "contended MB/s", "degradation", "CXL req/s"},
	}
	for i := range r.Solo {
		deg := 0.0
		if r.Solo[i] > 0 {
			deg = 1 - r.Contended[i]/r.Solo[i]
		}
		t.AddRow(fmt.Sprintf("%s-%d", r.Scenario, i+1),
			report.Num(r.Solo[i]), report.Num(r.Contended[i]),
			report.Pct(deg), report.Num(r.ReqFreq[i]))
	}
	return t
}
