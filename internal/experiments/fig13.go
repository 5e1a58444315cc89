package experiments

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/mem/tier"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Fig13App is one Case 7 workload's TPP-off/TPP-on measurement.
type Fig13App struct {
	Name string

	OpsOff, OpsOn             float64 // application work completed
	LocalHitsOff, LocalHitsOn float64 // core-PMU local-DRAM serves (DRd+RFO+HWPF)
	CXLHitsOff, CXLHitsOn     float64 // core-PMU CXL serves
	M2PLoadsOff, M2PLoadsOn   float64 // M2PCIe load responses
	M2PStoresOff, M2PStoresOn float64
	FlexLatOff, FlexLatOn     float64 // FlexBus+MC latency (cycles)
	CulpritQOff, CulpritQOn   float64 // culprit-path queue length
	CulpritStr                string
	Promoted                  int
}

// Fig13Result is Case 7: TPP on/off plus the Colloid comparison on GUPS.
type Fig13Result struct {
	Apps []Fig13App

	// GUPS throughput under plain Colloid vs the PathFinder-guided
	// dynamic variant (the paper reports a 1.1x improvement).
	ColloidOps, GuidedOps float64
}

// tppRun runs one workload over a tiered placement, optionally with a
// tiering manager, and returns the epoch-aggregated snapshot plus app ops.
func tppRun(opt charOptions, k core.Consts, makeGen func(r workload.Region) workload.Generator,
	pol mem.Policy, ws uint64, mode *tier.Config, guided bool,
	epochs int, epoch sim.Cycles) (*core.Snapshot, float64, int) {

	rig := NewRig(RigOptions{Config: opt.cfg})
	wlReg, _ := rig.AllocPolicy(ws, pol)
	counting := workload.NewCounting(makeGen(wlReg))
	rig.Machine.Attach(0, counting)

	var mgr *tier.Manager
	if mode != nil {
		var err error
		mgr, err = tier.NewManager(rig.Space, rig.Machine, rig.LocalNode, rig.CXLNode, *mode)
		if err != nil {
			panic(err)
		}
		rig.Machine.SetAccessHook(func(_ int, la uint64, _ bool) {
			mgr.ObserveAccess(la)
		})
	}

	cap := core.NewCapturer(rig.Machine)
	var agg *core.Snapshot
	for e := 0; e < epochs; e++ {
		rig.Machine.Run(epoch)
		s := cap.Capture()
		if mgr != nil {
			if mode.Mode == tier.ModeColloid {
				localLat, cxlLat, class := tierLatencies(s)
				if !guided {
					// Plain Colloid always uses the DRd latency.
					localLat, cxlLat = classLatency(s, core.PathDRd)
					_ = class
				}
				mgr.SetLatencies(localLat, cxlLat)
			}
			mgr.Tick()
		}
		// Keep only the last epoch's snapshot for steady-state analysis;
		// recycle the rest so the loop runs allocation-free.
		if agg != nil {
			agg.Release()
		}
		agg = s
	}
	promoted := 0
	if mgr != nil {
		promoted = mgr.Stats().Promoted
	}
	return agg, float64(counting.Total()), promoted
}

// classLatency measures the average local and CXL TOR residency of one
// request path from a snapshot.
func classLatency(s *core.Snapshot, p core.PathType) (localLat, cxlLat float64) {
	var occFam, insFam pmu.Family
	var scnLocal, scnCXL int
	switch p {
	case core.PathRFO:
		occFam, insFam = pmu.TOROccupancyIARFO, pmu.TORInsertsIARFO
		scnLocal, scnCXL = pmu.RFOMissLocal, pmu.RFOMissCXL
	case core.PathHWPF:
		occFam, insFam = pmu.TOROccupancyIADRdPref, pmu.TORInsertsIADRdPref
		scnLocal, scnCXL = pmu.ScnMissLocalDDR, pmu.ScnMissCXL
	default:
		occFam, insFam = pmu.TOROccupancyIADRd, pmu.TORInsertsIADRd
		scnLocal, scnCXL = pmu.ScnMissLocalDDR, pmu.ScnMissCXL
	}
	if ins := s.CHASum(insFam[scnLocal]); ins > 0 {
		localLat = s.CHASum(occFam[scnLocal]) / ins
	}
	if ins := s.CHASum(insFam[scnCXL]); ins > 0 {
		cxlLat = s.CHASum(occFam[scnCXL]) / ins
	}
	return localLat, cxlLat
}

// tierLatencies implements the PathFinder-guided selection: use the CHA
// miss ratios to find the dominant request type this phase and return its
// per-tier latency (§5.8's dynamic TPP+Colloid).
func tierLatencies(s *core.Snapshot) (localLat, cxlLat float64, class core.PathType) {
	misses := map[core.PathType]float64{
		core.PathDRd:  s.CHASum(pmu.TORInsertsIADRd[pmu.ScnMiss]),
		core.PathRFO:  s.CHASum(pmu.TORInsertsIARFO[pmu.RFOMiss]),
		core.PathHWPF: s.CHASum(pmu.TORInsertsIADRdPref[pmu.ScnMiss]),
	}
	class = core.PathDRd
	for p, v := range misses {
		if v > misses[class] {
			class = p
		}
	}
	localLat, cxlLat = classLatency(s, class)
	return localLat, cxlLat, class
}

// serveCounts extracts local and CXL serve counts over DRd+RFO+HWPF.
func serveCounts(s *core.Snapshot) (local, cxl float64) {
	for _, fam := range []pmu.Family{pmu.OCRDemandDataRd, pmu.OCRRFO,
		pmu.OCRL1DHWPF, pmu.OCRL2HWPFDRd, pmu.OCRL2HWPFRFO} {
		local += s.CoreFamilySum([]int{0}, fam, pmu.ScnMissLocalDDR)
		cxl += s.CoreFamilySum([]int{0}, fam, pmu.ScnMissCXL)
	}
	return local, cxl
}

// RunFig13 reproduces Figure 13 and the Case 7 analyses.
func RunFig13(cfg sim.Config, quick bool) *Fig13Result {
	opt := defaultChar(cfg, quick)
	k := core.ConstsFor(opt.cfg)
	epochs, epoch := 24, sim.Cycles(2_500_000)
	if quick {
		epochs, epoch = 16, 1_000_000
	}
	tppCfg := tier.DefaultConfig()
	tppCfg.MaxMigrationsPerTick = 256

	type spec struct {
		name string
		gen  func(r workload.Region) workload.Generator
		pol  mem.Policy
		ws   uint64
	}
	specs := []spec{
		{
			name: "YCSB-C (zipf, 4:1)",
			gen: func(r workload.Region) workload.Generator {
				return workload.NewZipf(r, 0.99, 1.0, 4, 20, 3)
			},
			pol: mem.Interleave{A: 0, B: 2, RatioA: 4, RatioB: 1},
			ws:  opt.ws,
		},
		{
			name: "GUPS (24/72 hot set, 90%)",
			gen: func(r workload.Region) workload.Generator {
				g := workload.NewGUPS(r, 2, 1.0/3.0, 0.9, 5)
				g.Batch = 8 // HPCC-style pipelined updates
				return g
			},
			pol: mem.Interleave{A: 0, B: 2, RatioA: 4, RatioB: 1},
			ws:  opt.ws + opt.ws/8,
		},
		{
			name: "649.fotonik3d_s (2:1)",
			gen: func(r workload.Region) workload.Generator {
				g := workload.NewStencil(r, 6, 5)
				g.Reuse = 4
				return g
			},
			pol: mem.Interleave{A: 0, B: 2, RatioA: 2, RatioB: 1},
			ws:  opt.ws,
		},
	}

	out := &Fig13Result{}
	for _, sp := range specs {
		sOff, opsOff, _ := tppRun(opt, k, sp.gen, sp.pol, sp.ws, nil, false, epochs, epoch)
		sOn, opsOn, promoted := tppRun(opt, k, sp.gen, sp.pol, sp.ws, &tppCfg, false, epochs, epoch)

		a := Fig13App{Name: sp.name, OpsOff: opsOff, OpsOn: opsOn, Promoted: promoted}
		a.LocalHitsOff, a.CXLHitsOff = serveCounts(sOff)
		a.LocalHitsOn, a.CXLHitsOn = serveCounts(sOn)
		a.M2PLoadsOff = sOff.M2P(0, pmu.M2PTxInsertsBL)
		a.M2PLoadsOn = sOn.M2P(0, pmu.M2PTxInsertsBL)
		a.M2PStoresOff = sOff.M2P(0, pmu.M2PTxInsertsAK)
		a.M2PStoresOn = sOn.M2P(0, pmu.M2PTxInsertsAK)
		flexLat := func(s *core.Snapshot) float64 {
			if ins := s.M2P(0, pmu.M2PRxInserts); ins > 0 {
				return s.M2P(0, pmu.M2PRxOccupancy)/ins + k.LinkTransit
			}
			return 0
		}
		a.FlexLatOff = flexLat(sOff)
		a.FlexLatOn = flexLat(sOn)
		var qrOff, qrOn core.QueueReport
		core.NewPlan(sOff.Index(), []int{0}, 0).AnalyzeQueuesInto(sOff, k, &qrOff)
		core.NewPlan(sOn.Index(), []int{0}, 0).AnalyzeQueuesInto(sOn, k, &qrOn)
		a.CulpritQOff = qrOff.Q[qrOff.CulpritPath][qrOff.CulpritComp]
		a.CulpritQOn = qrOn.Q[qrOff.CulpritPath][qrOff.CulpritComp]
		a.CulpritStr = qrOff.CulpritPath.String() + " on " + qrOff.CulpritComp.String()
		out.Apps = append(out.Apps, a)
	}

	// TPP+Colloid vs PathFinder-guided TPP+Colloid.  The paper's dynamic
	// variant replaces Colloid's fixed DRd latency with the latency of the
	// dominant request type; the difference shows on write-dominated
	// phases, where DRd latency samples are too sparse to steer migration.
	colloidCfg := tppCfg
	colloidCfg.Mode = tier.ModeColloid
	wrGen := func(r workload.Region) workload.Generator {
		g := workload.NewStream(r, 2, 1.0, 9)
		g.Reuse = 2
		return g
	}
	wrPol := mem.Interleave{A: 0, B: 2, RatioA: 4, RatioB: 1}
	_, out.ColloidOps, _ = tppRun(opt, k, wrGen, wrPol, opt.ws, &colloidCfg, false, epochs, epoch)
	_, out.GuidedOps, _ = tppRun(opt, k, wrGen, wrPol, opt.ws, &colloidCfg, true, epochs, epoch)
	return out
}

// Table renders the TPP comparison.
func (r *Fig13Result) Table() *report.Table {
	t := &report.Table{
		Title: "Figure 13 / Case 7: TPP off vs on",
		Cols: []string{"workload", "ops off", "ops on", "speedup",
			"local serves off->on", "CXL serves off->on",
			"M2P loads off->on", "flex lat off->on", "culprit", "culprit Q off->on", "promoted"},
	}
	for _, a := range r.Apps {
		speed := 0.0
		if a.OpsOff > 0 {
			speed = a.OpsOn / a.OpsOff
		}
		t.AddRow(a.Name, report.Num(a.OpsOff), report.Num(a.OpsOn), report.Ratio(speed),
			report.Num(a.LocalHitsOff)+" -> "+report.Num(a.LocalHitsOn),
			report.Num(a.CXLHitsOff)+" -> "+report.Num(a.CXLHitsOn),
			report.Num(a.M2PLoadsOff)+" -> "+report.Num(a.M2PLoadsOn),
			report.Num(a.FlexLatOff)+" -> "+report.Num(a.FlexLatOn),
			a.CulpritStr,
			report.Num(a.CulpritQOff)+" -> "+report.Num(a.CulpritQOn),
			fmt.Sprint(a.Promoted))
	}
	return t
}
