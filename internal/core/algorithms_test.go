package core

import (
	"testing"

	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
)

// Synthetic-snapshot tests: exercise PFEstimator and PFAnalyzer directly
// against hand-built counter vectors so the attribution arithmetic is
// pinned down independently of the simulator.

// synthRig builds an empty snapshot with the given module census and a
// setter for individual counters.
type synthRig struct {
	s *Snapshot
}

func newSynthRig(cores, chas, imcs, cxls int, cycles sim.Cycles) *synthRig {
	var names []string
	for i := 0; i < cores; i++ {
		names = append(names, bankName("core", i))
	}
	for i := 0; i < chas; i++ {
		names = append(names, bankName("cha", i))
	}
	for i := 0; i < imcs; i++ {
		names = append(names, bankName("imc", i))
	}
	for i := 0; i < cxls; i++ {
		names = append(names, bankName("m2pcie", i))
		names = append(names, bankName("cxl", i))
	}
	idx := NewBankIndex(names, pmu.Default.Len())
	s := &Snapshot{Start: 0, End: cycles, idx: idx, arena: make([]uint64, idx.ArenaLen())}
	return &synthRig{s: s}
}

func bankName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func (r *synthRig) set(bank string, e pmu.Event, v uint64) *synthRig {
	r.s.bankDelta(bank)[e] = v
	return r
}

func testConsts() Consts {
	return Consts{L1Lat: 5, L1Tag: 4, L2Lat: 14, L2Tag: 10,
		LLCLat: 33, LLCTag: 12, Mesh: 18, LinkTransit: 400}
}

func TestEstimatorArithmetic(t *testing.T) {
	// One core sends 100 CXL DRd reads; another core sends 300.  The
	// device saw 400 requests with a read-queue occupancy integral of
	// 8000; the M2PCIe ingress integral is 2000, all reads.
	r := newSynthRig(2, 2, 1, 1, 1_000_000)
	r.set("core0", pmu.OCRDemandDataRd[pmu.ScnMissCXL], 100)
	r.set("core1", pmu.OCRDemandDataRd[pmu.ScnMissCXL], 300)
	r.set("cxl0", pmu.CXLRxPackBufInsertsReq, 400)
	r.set("cxl0", pmu.CXLDevRPQOccupancy, 8000)
	r.set("m2pcie0", pmu.M2PRxOccupancy, 2000)
	r.set("m2pcie0", pmu.M2PRxInserts, 400)
	r.set("m2pcie0", pmu.M2PTxInsertsBL, 400) // all responses are data
	// TOR residency of the DRd CXL entries, socket-wide.
	r.set("cha0", pmu.TOROccupancyIADRd[pmu.ScnMissCXL], 300_000)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAAll], 300_000)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAMissCXL], 300_000)

	k := testConsts()
	var bd, bd1 StallBreakdown
	NewPlan(r.s.Index(), []int{0}, 0).EstimateStallsInto(r.s, k, &bd)

	// Device stall distributed by flow share: 100/400 of 8000.
	if got := bd.Stall[PathDRd][CompCXLDIMM]; got != 2000 {
		t.Fatalf("device stall = %v, want 2000", got)
	}
	// FlexBus: ingress share (100/400 of 2000) + transit (100 * 400).
	if got := bd.Stall[PathDRd][CompFlexBusMC]; got != 500+40_000 {
		t.Fatalf("flexbus stall = %v, want 40500", got)
	}
	// CHA own share: flow-scaled TOR residency minus downstream and mesh.
	// flowFrac = 100/400 -> 75000; minus 2000 (DIMM), 40500 (flex),
	// 100*18 (mesh) = 30700.
	if got := bd.Stall[PathDRd][CompCHA]; got != 30_700 {
		t.Fatalf("CHA stall = %v, want 30700", got)
	}
	if got := bd.Stall[PathDRd][CompLLC]; got != 100*12 {
		t.Fatalf("LLC stall = %v, want 1200", got)
	}

	// The other flow takes the remaining 3/4 of the device stall.
	NewPlan(r.s.Index(), []int{1}, 0).EstimateStallsInto(r.s, k, &bd1)
	if got := bd1.Stall[PathDRd][CompCXLDIMM]; got != 6000 {
		t.Fatalf("core1 device stall = %v, want 6000", got)
	}
	// Attribution is conservative: flow shares of the device stall sum to
	// the whole.
	if bd.Stall[PathDRd][CompCXLDIMM]+bd1.Stall[PathDRd][CompCXLDIMM] != 8000 {
		t.Fatal("device stall not conserved across flows")
	}
}

func TestEstimatorInCoreAttribution(t *testing.T) {
	// All offcore waiting is CXL (frac = 1): the hierarchical stall
	// counters split into own-level components by differencing.
	r := newSynthRig(1, 1, 1, 1, 1_000_000)
	r.set("core0", pmu.OCRDemandDataRd[pmu.ScnMissCXL], 10)
	r.set("cxl0", pmu.CXLRxPackBufInsertsReq, 10)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAAll], 5000)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAMissCXL], 5000)
	r.set("core0", pmu.StallsL1DMiss, 1000)
	r.set("core0", pmu.StallsL2Miss, 700)
	r.set("core0", pmu.StallsL3Miss, 400)
	r.set("core0", pmu.L1DPendMissFBFull, 50)

	var bd StallBreakdown
	NewPlan(r.s.Index(), []int{0}, 0).EstimateStallsInto(r.s, testConsts(), &bd)
	if got := bd.Stall[PathDRd][CompL1D]; got != 300 {
		t.Fatalf("L1D own stall = %v, want 1000-700", got)
	}
	if got := bd.Stall[PathDRd][CompL2]; got != 300 {
		t.Fatalf("L2 own stall = %v, want 700-400", got)
	}
	if got := bd.Stall[PathDRd][CompLFB]; got != 50 {
		t.Fatalf("LFB stall = %v", got)
	}
}

func TestEstimatorHalfCXLFraction(t *testing.T) {
	// Half the TOR residency is CXL-destined: in-core stalls are halved.
	r := newSynthRig(1, 1, 1, 1, 1_000_000)
	r.set("core0", pmu.OCRDemandDataRd[pmu.ScnMissCXL], 10)
	r.set("cxl0", pmu.CXLRxPackBufInsertsReq, 10)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAAll], 8000)
	r.set("cha0", pmu.TOROccupancyIA[pmu.IAMissCXL], 4000)
	r.set("core0", pmu.StallsL1DMiss, 1000)

	plan := NewPlan(r.s.Index(), []int{0}, 0)
	if f := plan.CXLWaitShare(r.s); f != 0.5 {
		t.Fatalf("wait fraction = %v", f)
	}
	var bd StallBreakdown
	plan.EstimateStallsInto(r.s, testConsts(), &bd)
	if got := bd.Stall[PathDRd][CompL1D]; got != 500 {
		t.Fatalf("half-scaled L1D stall = %v", got)
	}
}

func TestAnalyzerLittlesLaw(t *testing.T) {
	// L1D: 1000 hits at W=5 plus 500 misses at W_tag=4 over 10k cycles:
	// L = (1000*5 + 500*4) / 10000 = 0.7.
	r := newSynthRig(1, 1, 1, 1, 10_000)
	r.set("core0", pmu.MemLoadL1Hit, 1000)
	r.set("core0", pmu.MemLoadL1Miss, 500)
	var qr, qr2 QueueReport
	NewPlan(r.s.Index(), []int{0}, 0).AnalyzeQueuesInto(r.s, testConsts(), &qr)
	if got := qr.Q[PathDRd][CompL1D]; got != 0.7 {
		t.Fatalf("L1D queue = %v, want 0.7", got)
	}

	// LLC W_miss comes from the measured TOR residency per miss:
	// occupancy 120000 over 200 inserts -> 600 cycles each.
	r2 := newSynthRig(1, 1, 1, 1, 10_000)
	r2.set("core0", pmu.OCRDemandDataRd[pmu.ScnHit], 100)
	r2.set("core0", pmu.OCRDemandDataRd[pmu.ScnMiss], 200)
	r2.set("cha0", pmu.TOROccupancyIADRd[pmu.ScnMiss], 120_000)
	r2.set("cha0", pmu.TORInsertsIADRd[pmu.ScnMiss], 200)
	NewPlan(r2.s.Index(), []int{0}, 0).AnalyzeQueuesInto(r2.s, testConsts(), &qr2)
	want := (100*33.0 + 200*600.0) / 10_000
	if got := qr2.Q[PathDRd][CompLLC]; got != want {
		t.Fatalf("LLC queue = %v, want %v", got, want)
	}
	if qr2.CulpritPath != PathDRd || qr2.CulpritComp != CompLLC {
		t.Fatalf("culprit = %v on %v", qr2.CulpritPath, qr2.CulpritComp)
	}
}

func TestAnalyzerZeroCycles(t *testing.T) {
	r := newSynthRig(1, 1, 1, 1, 0)
	plan := NewPlan(r.s.Index(), []int{0}, 0)
	var qr QueueReport
	plan.AnalyzeQueuesInto(r.s, testConsts(), &qr)
	for _, p := range Paths() {
		for _, c := range Components() {
			if qr.Q[p][c] != 0 {
				t.Fatalf("zero-length epoch produced Q[%v][%v]=%v", p, c, qr.Q[p][c])
			}
		}
	}
	var meas [CompCount]float64
	if plan.MeasuredQueuesInto(r.s, &meas) || meas != [CompCount]float64{} {
		t.Fatalf("measured queues on a zero-length epoch: %v", meas)
	}
}

func TestBuilderSyntheticRows(t *testing.T) {
	r := newSynthRig(1, 1, 1, 1, 10_000)
	r.set("core0", pmu.MemLoadL1Hit, 111)
	r.set("core0", pmu.MemLoadFBHit, 22)
	r.set("core0", pmu.L2DemandDataRdHit, 33)
	r.set("core0", pmu.MemLoadL3HitRetired[0], 7)
	r.set("core0", pmu.MemLoadL3HitRetired[2], 3)
	r.set("core0", pmu.OCRDemandDataRd[pmu.ScnMissLocalDDR], 40)
	r.set("core0", pmu.OCRDemandDataRd[pmu.ScnMissCXL], 50)

	var pm PathMap
	NewPlan(r.s.Index(), []int{0}, 0).BuildPathMapInto(r.s, &pm)
	want := map[Level]float64{
		LvlL1D: 111, LvlLFB: 22, LvlL2: 33,
		LvlLocalLLC: 7, LvlSNCLLC: 3, LvlLocalDRAM: 40, LvlCXL: 50,
	}
	for l, w := range want {
		if got := pm.Load[PathDRd][l]; got != w {
			t.Fatalf("DRd[%v] = %v, want %v", l, got, w)
		}
	}
	if got := pm.PathTotal(PathDRd); got != 266 {
		t.Fatalf("DRd total = %v", got)
	}
	if got := pm.CXLShare(PathDRd); got != 50.0/100.0 {
		t.Fatalf("CXL share = %v", got)
	}
}
