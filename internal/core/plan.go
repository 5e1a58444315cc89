package core

import (
	"fmt"

	"pathfinder/internal/pmu"
)

// Plan is a precompiled read plan for one flow: the arena offsets of the
// flow's core banks and of the M2PCIe + device banks of one CXL port,
// resolved once against a BankIndex, whose shared present-offset lists
// serve the socket-wide core/CHA/IMC/CXL sums.
// The analyses (PFBuilder, PFEstimator, PFAnalyzer) run off a plan as flat
// slice walks — no name formatting, no map lookups, no per-epoch setup.
//
// Plans are the only way to run the analyses: the profiler compiles one per
// application at construction time, and one-shot callers compile one per
// (rig, flow, port) and call the *Into methods.
type Plan struct {
	idx   *BankIndex
	cores []int // the flow's core set as given (nil = all cores)

	flow []int // arena offsets of the flow's core banks

	dev            int // the CXL device the flow is analyzed against
	m2pOff, cxlOff int // that device's M2PCIe and device-bank offsets
}

// NewPlan compiles a read plan for the flow originating at the given cores
// (nil = all cores) toward CXL device dev.  Unknown cores or devices panic
// descriptively, as all misaddressed bank access does.
func NewPlan(idx *BankIndex, cores []int, dev int) *Plan {
	p := &Plan{
		idx:   idx,
		cores: cores,
		dev:   dev,
		// The device offsets resolve leniently (-1 when absent) so plans
		// that never touch the port — PFBuilder has no device notion —
		// still compile against partial layouts; an actual M2P/CXL read of
		// a missing bank panics descriptively at that point.
		m2pOff: groupOffset(idx.m2p, dev),
		cxlOff: groupOffset(idx.cxl, dev),
	}
	if cores == nil {
		p.flow = idx.corePresent
	} else {
		p.flow = make([]int, len(cores))
		for i, c := range cores {
			p.flow[i] = idx.CoreBank(c)
		}
	}
	return p
}

// groupOffset resolves one instance without panicking: -1 when absent.
func groupOffset(group []int, i int) int {
	if i >= 0 && i < len(group) {
		return group[i]
	}
	return -1
}

// check panics when a snapshot was captured under a different layout than
// the plan was compiled for — offsets would silently address wrong banks.
func (p *Plan) check(s *Snapshot) {
	if s.idx != p.idx {
		panic(fmt.Sprintf("core: plan compiled for a different bank layout (%d banks) than snapshot (%d banks)",
			p.idx.NumBanks(), s.idx.NumBanks()))
	}
}

// sumAt adds one event across a precompiled offset list.
func sumAt(arena []uint64, offs []int, e pmu.Event) float64 {
	var t uint64
	for _, off := range offs {
		t += arena[off+int(e)]
	}
	return float64(t)
}

// CoreSum sums an event over the flow's cores.
func (p *Plan) CoreSum(s *Snapshot, e pmu.Event) float64 { return sumAt(s.arena, p.flow, e) }

// AllCoreSum sums an event over every core on the socket.
func (p *Plan) AllCoreSum(s *Snapshot, e pmu.Event) float64 {
	return sumAt(s.arena, p.idx.corePresent, e)
}

// FamilySum sums one scenario of an OCR-style family over the flow's cores.
func (p *Plan) FamilySum(s *Snapshot, fam pmu.Family, scn int) float64 {
	return sumAt(s.arena, p.flow, fam.At(scn))
}

// AllFamilySum sums one scenario of a family over every core.
func (p *Plan) AllFamilySum(s *Snapshot, fam pmu.Family, scn int) float64 {
	return sumAt(s.arena, p.idx.corePresent, fam.At(scn))
}

// M2P reads an event from the plan device's M2PCIe bank.
func (p *Plan) M2P(s *Snapshot, e pmu.Event) float64 {
	if p.m2pOff < 0 {
		p.idx.M2PBank(p.dev) // panics descriptively
	}
	return float64(s.arena[p.m2pOff+int(e)])
}

// CXL reads an event from the plan device's bank.
func (p *Plan) CXL(s *Snapshot, e pmu.Event) float64 {
	if p.cxlOff < 0 {
		p.idx.CXLBank(p.dev) // panics descriptively
	}
	return float64(s.arena[p.cxlOff+int(e)])
}

// cxlSum sums an event over every CXL device bank.
func (p *Plan) cxlSum(s *Snapshot, e pmu.Event) float64 { return sumAt(s.arena, p.idx.cxlPresent, e) }

// --- PFBuilder (§4.3) -------------------------------------------------------

// BuildPathMapInto runs PFBuilder: it constructs the flow's path map into
// pm, overwriting it, by synthesizing the Table 5 counters: per-core hit
// counters for the on-core levels, offcore-response scenario counters for
// the uncore destinations, and device-level ground truth for writeback
// targets.
//
// Documented PMU blind spots are preserved faithfully (§5.9): RFO and DWr
// cannot be observed at L1D/LFB; the L2 RFO counter mixes demand and
// prefetch RFOs; HWPF hits cannot be split between the local and distant
// SNC cluster per-core, so the split is estimated from the DRd ratio.
func (p *Plan) BuildPathMapInto(s *Snapshot, pm *PathMap) {
	p.check(s)
	pm.Cores = p.cores
	pm.Load = [PathCount][LevelCount]float64{}
	cs := func(e pmu.Event) float64 { return p.CoreSum(s, e) }
	fam := func(f pmu.Family, scn int) float64 { return p.FamilySum(s, f, scn) }

	// --- DRd (software prefetches merge into DRd after the L1D, §3.2) ---
	drd := &pm.Load[PathDRd]
	drd[LvlL1D] = cs(pmu.MemLoadL1Hit)
	drd[LvlLFB] = cs(pmu.MemLoadFBHit)
	drd[LvlL2] = cs(pmu.L2DemandDataRdHit) + cs(pmu.L2SWPFHit)
	drd[LvlLocalLLC] = cs(pmu.MemLoadL3HitRetired[0]) + cs(pmu.MemLoadL3HitRetired[3])
	drd[LvlSNCLLC] = cs(pmu.MemLoadL3HitRetired[2])
	drd[LvlRemoteLLC] = cs(pmu.MemLoadL3MissRetired[2])
	drd[LvlLocalDRAM] = fam(pmu.OCRDemandDataRd, pmu.ScnMissLocalDDR)
	drd[LvlRemoteDRAM] = fam(pmu.OCRDemandDataRd, pmu.ScnMissRemoteDDR)
	drd[LvlCXL] = fam(pmu.OCRDemandDataRd, pmu.ScnMissCXL)

	// --- RFO ---
	rfo := &pm.Load[PathRFO]
	rfo[LvlL2] = cs(pmu.L2RFOHit) // includes prefetch RFOs: PMU limitation
	rfo[LvlLocalLLC] = fam(pmu.OCRRFO, pmu.ScnHit)
	rfo[LvlRemoteLLC] = 0 // not observable per-core for RFOs
	rfo[LvlLocalDRAM] = fam(pmu.OCRRFO, pmu.ScnMissLocalDDR)
	rfo[LvlRemoteDRAM] = fam(pmu.OCRRFO, pmu.ScnMissRemoteDDR)
	rfo[LvlCXL] = fam(pmu.OCRRFO, pmu.ScnMissCXL)

	// --- HW PF: the three prefetch OCR matrices combined ---
	hw := &pm.Load[PathHWPF]
	pfScn := func(scn int) float64 {
		return fam(pmu.OCRL1DHWPF, scn) + fam(pmu.OCRL2HWPFDRd, scn) + fam(pmu.OCRL2HWPFRFO, scn)
	}
	hw[LvlL2] = cs(pmu.L2HWPFHit)
	hitLLC := pfScn(pmu.ScnHit)
	// Split LLC hits between the local and distant cluster using the DRd
	// ratio (no per-core prefetch xsnp counters exist).
	if dl, ds := drd[LvlLocalLLC], drd[LvlSNCLLC]; dl+ds > 0 {
		hw[LvlLocalLLC] = hitLLC * dl / (dl + ds)
		hw[LvlSNCLLC] = hitLLC * ds / (dl + ds)
	} else {
		hw[LvlLocalLLC] = hitLLC
	}
	hw[LvlLocalDRAM] = pfScn(pmu.ScnMissLocalDDR)
	hw[LvlRemoteDRAM] = pfScn(pmu.ScnMissRemoteDDR)
	hw[LvlCXL] = pfScn(pmu.ScnMissCXL)

	// --- DWr ---
	dwr := &pm.Load[PathDWr]
	stores := cs(pmu.MemInstAllStores)
	l2StoreHits := cs(pmu.MemStoreL2Hit)
	offcoreRFOs := cs(pmu.L2AllRFO)
	sb := stores - offcoreRFOs
	if sb < 0 {
		sb = 0
	}
	dwr[LvlSB] = sb
	dwr[LvlL2] = l2StoreHits
	dwr[LvlLocalLLC] = cs(pmu.OCRModifiedWriteAny) // L2 dirty victims landing at the LLC

	// Writeback destinations: device-level ground truth (Table 5's
	// M2PCIe/IMC rows), scaled to the flow's share of socket writebacks.
	flowWB := cs(pmu.OCRModifiedWriteAny)
	allWB := p.AllCoreSum(s, pmu.OCRModifiedWriteAny)
	share := 1.0
	if allWB > 0 {
		share = flowWB / allWB
	}
	dwr[LvlLocalDRAM] = s.IMCSum(pmu.WPQInserts) * share
	cxlWr := p.cxlSum(s, pmu.CXLRxPackBufInsertsData)
	dwr[LvlCXL] = cxlWr * share
}

// --- PFAnalyzer (§4.5) ------------------------------------------------------

// pathHitMiss extracts a path's hit/miss counts at one cache level from the
// snapshot, honoring the PMU blind spots (RFO/HWPF are invisible at L1D).
func (p *Plan) pathHitMiss(s *Snapshot, pt PathType, c Component) (hit, miss float64) {
	switch c {
	case CompL1D:
		if pt == PathDRd {
			return p.CoreSum(s, pmu.MemLoadL1Hit), p.CoreSum(s, pmu.MemLoadL1Miss)
		}
	case CompL2:
		switch pt {
		case PathDRd:
			return p.CoreSum(s, pmu.L2DemandDataRdHit), p.CoreSum(s, pmu.L2DemandDataRdMiss)
		case PathRFO:
			return p.CoreSum(s, pmu.L2RFOHit), p.CoreSum(s, pmu.L2RFOMiss)
		case PathHWPF:
			return p.CoreSum(s, pmu.L2HWPFHit), p.CoreSum(s, pmu.L2HWPFMiss)
		}
	case CompLLC:
		var fams []pmu.Family
		switch pt {
		case PathDRd:
			fams = ocrFamsDRd
		case PathRFO:
			fams = ocrFamsRFO
		case PathHWPF:
			fams = ocrFamsHWPF
		}
		for _, f := range fams {
			hit += p.FamilySum(s, f, pmu.ScnHit)
			miss += p.FamilySum(s, f, pmu.ScnMiss)
		}
		return hit, miss
	}
	return 0, 0
}

// The OCR family groupings per path, shared by the LLC hit/miss and the
// CXL-read extraction.
var (
	ocrFamsDRd  = []pmu.Family{pmu.OCRDemandDataRd}
	ocrFamsRFO  = []pmu.Family{pmu.OCRRFO}
	ocrFamsHWPF = []pmu.Family{pmu.OCRL1DHWPF, pmu.OCRL2HWPFDRd, pmu.OCRL2HWPFRFO}
)

// llcMissDelay measures the average TOR residency of missing entries for a
// path — PFAnalyzer's W_miss at the LLC ("missing requests remain in the
// CHA TOR queue until completed", §4.5).
func (p *Plan) llcMissDelay(s *Snapshot, pt PathType) float64 {
	var occ, ins float64
	switch pt {
	case PathDRd:
		occ = s.CHASum(pmu.TOROccupancyIADRd[pmu.ScnMiss])
		ins = s.CHASum(pmu.TORInsertsIADRd[pmu.ScnMiss])
	case PathRFO:
		occ = s.CHASum(pmu.TOROccupancyIARFO[pmu.RFOMiss])
		ins = s.CHASum(pmu.TORInsertsIARFO[pmu.RFOMiss])
	case PathHWPF:
		occ = s.CHASum(pmu.TOROccupancyIADRdPref[pmu.ScnMiss]) +
			s.CHASum(pmu.TOROccupancyIARFOPref[pmu.RFOMiss])
		ins = s.CHASum(pmu.TORInsertsIADRdPref[pmu.ScnMiss]) +
			s.CHASum(pmu.TORInsertsIARFOPref[pmu.RFOMiss])
	}
	if ins == 0 {
		return 0
	}
	return occ / ins
}

// cxlPathReads returns a path's CXL read traffic for the flow.
func (p *Plan) cxlPathReads(s *Snapshot, pt PathType) float64 {
	switch pt {
	case PathDRd:
		return p.FamilySum(s, pmu.OCRDemandDataRd, pmu.ScnMissCXL)
	case PathRFO:
		return p.FamilySum(s, pmu.OCRRFO, pmu.ScnMissCXL)
	case PathHWPF:
		return p.FamilySum(s, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
			p.FamilySum(s, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
			p.FamilySum(s, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL)
	}
	return 0
}

// readPaths are the read-side paths the analyzer and estimator iterate.
var readPaths = [...]PathType{PathDRd, PathRFO, PathHWPF}

// AnalyzeQueuesInto runs PFAnalyzer (Algorithm 1) into r, overwriting it:
// each component is modeled as an FCFS queue, hit/miss rates combine with
// hit/tag/miss delays through Little's law (L = λ_hit·W_hit + λ_miss·W_miss
// at L1D/L2/LLC; L = λ_hit·W_hit at LFB and the memory devices), and the
// maximum-occupancy (path, component) pair is flagged as the culprit.
func (p *Plan) AnalyzeQueuesInto(s *Snapshot, k Consts, r *QueueReport) {
	p.check(s)
	*r = QueueReport{}
	r.DeviceDark = p.deviceDark(s)
	clocks := s.Cycles()
	if clocks == 0 {
		return
	}

	devReads := p.CXL(s, pmu.CXLRxPackBufInsertsReq)
	devReadOcc := p.CXL(s, pmu.CXLDevRPQOccupancy) + p.CXL(s, pmu.CXLRxPackBufOccReq)
	m2pIns := p.M2P(s, pmu.M2PRxInserts)
	m2pOcc := p.M2P(s, pmu.M2PRxOccupancy)

	for _, pt := range readPaths {
		// L1D, L2: hit/miss with constant tag-lookup miss penalty.
		for _, c := range [...]Component{CompL1D, CompL2} {
			hit, miss := p.pathHitMiss(s, pt, c)
			wHit, wTag := k.L1Lat, k.L1Tag
			if c == CompL2 {
				wHit, wTag = k.L2Lat, k.L2Tag
			}
			r.Q[pt][c] = (hit*wHit + miss*wTag) / clocks
		}
		// LLC: measured miss residency as W_miss.
		hit, miss := p.pathHitMiss(s, pt, CompLLC)
		r.Q[pt][CompLLC] = (hit*k.LLCLat + miss*p.llcMissDelay(s, pt)) / clocks

		// LFB (demand-load path only): L = λ_hit · W_hit with the measured
		// average offcore read latency as the fill delay.
		if pt == PathDRd {
			fills := p.CoreSum(s, pmu.MemLoadL1Miss)
			offIns := p.CoreSum(s, pmu.OffcoreDataRd)
			var wFill float64
			if offIns > 0 {
				wFill = p.CoreSum(s, pmu.ORODataRd) / offIns
			}
			r.Q[pt][CompLFB] = fills * wFill / clocks
		}

		// FlexBus+MC and CXL DIMM: arrival rate x measured per-request
		// residency, apportioned to the path by its CXL traffic share.
		fr := p.cxlPathReads(s, pt)
		if devReads > 0 && fr > 0 {
			var wFlex float64
			if m2pIns > 0 {
				wFlex = m2pOcc/m2pIns + k.LinkTransit
			}
			r.Q[pt][CompFlexBusMC] = (fr / clocks) * wFlex
			r.Q[pt][CompCXLDIMM] = devReadOcc * (fr / devReads) / clocks
		}
	}

	// Culprit: the maximum estimated queue length.
	best := -1.0
	for _, pt := range Paths() {
		for _, c := range Components() {
			if r.Q[pt][c] > best {
				best = r.Q[pt][c]
				r.CulpritPath, r.CulpritComp = pt, c
			}
		}
	}
}

// MeasuredQueuesInto writes the directly-integrated average queue length of
// each instrumented component (LFB, CHA, FlexBus+MC, CXL DIMM) into q,
// zeroing the rest — the ground truth PFAnalyzer's estimates are validated
// against, and the series plotted in Figures 8 and 10.  It reports false
// (q all zero) when the snapshot window is empty.
func (p *Plan) MeasuredQueuesInto(s *Snapshot, q *[CompCount]float64) bool {
	p.check(s)
	*q = [CompCount]float64{}
	clocks := s.Cycles()
	if clocks == 0 {
		return false
	}
	q[CompLFB] = p.CoreSum(s, pmu.L1DPendMissPending) / clocks
	q[CompCHA] = s.CHASum(pmu.TOROccupancyIA[pmu.IAAll]) / clocks
	q[CompFlexBusMC] = p.M2P(s, pmu.M2PRxOccupancy) / clocks
	q[CompCXLDIMM] = (p.CXL(s, pmu.CXLDevRPQOccupancy) +
		p.CXL(s, pmu.CXLRxPackBufOccReq) +
		p.CXL(s, pmu.CXLDevWPQOccupancy) +
		p.CXL(s, pmu.CXLRxPackBufOccData)) / clocks
	return true
}

// deviceDark reports whether the profiled device vanished during the
// snapshot window: the root port discovered a surprise removal or
// fast-failed isolated accesses, so the device bank stopped counting.
func (p *Plan) deviceDark(s *Snapshot) bool {
	return p.M2P(s, pmu.M2PDevRemoved) > 0 || p.M2P(s, pmu.M2PFastFails) > 0
}

// --- PFEstimator (§4.4) -----------------------------------------------------

// CXLWaitShare estimates the CXL-induced share of all offcore waiting in
// the snapshot from the TOR residency integrals: the occupancy of
// CXL-destined entries over the occupancy of all core-originated entries.
// This is the bottom-up signal PFEstimator uses instead of naive
// miss-target proportions (§5.3).  It is socket-wide: the plan's flow and
// device do not enter it.
func (p *Plan) CXLWaitShare(s *Snapshot) float64 {
	all := s.CHASum(pmu.TOROccupancyIA[pmu.IAAll])
	if all <= 0 {
		return 0
	}
	cxl := s.CHASum(pmu.TOROccupancyIA[pmu.IAMissCXL])
	f := cxl / all
	if f > 1 {
		f = 1
	}
	return f
}

// EstimateStallsInto runs the PFEstimator back-propagation (Algorithm 2)
// for the plan's flow toward its CXL device into bd, overwriting it:
// starting from the device queue occupancies, stall is distributed
// backward — device -> FlexBus RC -> uncore/CHA -> core components —
// proportionally to each segment's attributable traffic, with each segment
// adding its own measured waiting.
func (p *Plan) EstimateStallsInto(s *Snapshot, k Consts, bd *StallBreakdown) {
	p.check(s)
	*bd = StallBreakdown{}
	bd.DeviceDark = p.deviceDark(s)

	// Per-path CXL read traffic for the flow and for the whole socket.
	var flowReads, allReads [PathCount]float64
	flowReads[PathDRd] = p.FamilySum(s, pmu.OCRDemandDataRd, pmu.ScnMissCXL)
	flowReads[PathRFO] = p.FamilySum(s, pmu.OCRRFO, pmu.ScnMissCXL)
	flowReads[PathHWPF] = p.FamilySum(s, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
		p.FamilySum(s, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
		p.FamilySum(s, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL)
	allReads[PathDRd] = p.AllFamilySum(s, pmu.OCRDemandDataRd, pmu.ScnMissCXL)
	allReads[PathRFO] = p.AllFamilySum(s, pmu.OCRRFO, pmu.ScnMissCXL)
	allReads[PathHWPF] = p.AllFamilySum(s, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
		p.AllFamilySum(s, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
		p.AllFamilySum(s, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL)

	// Level 0: CXL DIMM queue buildup (device command queues + ingress
	// packing buffers), split read/write.
	devReadOcc := p.CXL(s, pmu.CXLDevRPQOccupancy) + p.CXL(s, pmu.CXLRxPackBufOccReq)
	devWriteOcc := p.CXL(s, pmu.CXLDevWPQOccupancy) + p.CXL(s, pmu.CXLRxPackBufOccData)
	devReads := p.CXL(s, pmu.CXLRxPackBufInsertsReq)
	devWrites := p.CXL(s, pmu.CXLRxPackBufInsertsData)

	// Level 1: FlexBus RC waiting (M2PCIe ingress occupancy), split by
	// read/write traffic through the port.
	m2pOcc := p.M2P(s, pmu.M2PRxOccupancy)
	rdResp := p.M2P(s, pmu.M2PTxInsertsBL)
	wrAck := p.M2P(s, pmu.M2PTxInsertsAK)
	m2pRead, m2pWrite := m2pOcc, 0.0
	if rdResp+wrAck > 0 {
		m2pRead = m2pOcc * rdResp / (rdResp + wrAck)
		m2pWrite = m2pOcc - m2pRead
	}

	// Per-path TOR residency of CXL-destined entries (socket counters,
	// scaled to the flow's share of that path's CXL traffic).
	var torOcc [PathCount]float64
	torOcc[PathDRd] = s.CHASum(pmu.TOROccupancyIADRd[pmu.ScnMissCXL])
	torOcc[PathRFO] = s.CHASum(pmu.TOROccupancyIARFO[pmu.RFOMissCXL])
	torOcc[PathHWPF] = s.CHASum(pmu.TOROccupancyIADRdPref[pmu.ScnMissCXL]) +
		s.CHASum(pmu.TOROccupancyIARFOPref[pmu.RFOMissCXL])

	for _, pt := range readPaths {
		fr := flowReads[pt]
		if fr == 0 {
			continue
		}
		devShare := 0.0
		if devReads > 0 {
			devShare = fr / devReads
		}
		flowFrac := 1.0
		if allReads[pt] > 0 {
			flowFrac = fr / allReads[pt]
		}
		bd.Stall[pt][CompCXLDIMM] = devReadOcc * devShare
		bd.Stall[pt][CompFlexBusMC] = m2pRead*devShare + fr*k.LinkTransit
		tor := torOcc[pt] * flowFrac
		chaOwn := tor - bd.Stall[pt][CompCXLDIMM] - bd.Stall[pt][CompFlexBusMC] - fr*k.Mesh
		if chaOwn < 0 {
			chaOwn = 0
		}
		bd.Stall[pt][CompCHA] = chaOwn
		bd.Stall[pt][CompLLC] = fr * k.LLCTag
	}

	// In-core segments for the DRd path: the hierarchical stall counters
	// give own-level stalls by differencing; the CXL-induced portion is
	// the TOR-residency fraction (bottom-up, not miss-count-proportional).
	frac := p.CXLWaitShare(s)
	stL1 := p.CoreSum(s, pmu.StallsL1DMiss)
	stL2 := p.CoreSum(s, pmu.StallsL2Miss)
	stL3 := p.CoreSum(s, pmu.StallsL3Miss)
	own := func(a, b float64) float64 {
		if a > b {
			return a - b
		}
		return 0
	}
	bd.Stall[PathDRd][CompL1D] = own(stL1, stL2) * frac
	bd.Stall[PathDRd][CompLFB] = p.CoreSum(s, pmu.L1DPendMissFBFull) * frac
	bd.Stall[PathDRd][CompL2] = own(stL2, stL3) * frac

	// RFO/HWPF in-core components: only tag-lookup transit is attributable
	// (the core PMU cannot break non-demand stalls down by type, §5.9).
	bd.Stall[PathRFO][CompL1D] = flowReads[PathRFO] * k.L1Tag
	bd.Stall[PathRFO][CompL2] = flowReads[PathRFO] * k.L2Tag
	bd.Stall[PathHWPF][CompL2] = flowReads[PathHWPF] * k.L2Tag

	// DWr path: SB-full stalls scaled by the CXL share of write drain, and
	// the write-side device/FlexBus occupancies.
	sbStall := p.CoreSum(s, pmu.ResourceStallsSB) + p.CoreSum(s, pmu.ExeBoundOnStores)
	localWr := s.IMCSum(pmu.WPQInserts)
	wrFrac := 0.0
	if devWrites+localWr > 0 {
		wrFrac = devWrites / (devWrites + localWr)
	}
	flowWB := p.CoreSum(s, pmu.OCRModifiedWriteAny)
	allWB := p.AllCoreSum(s, pmu.OCRModifiedWriteAny)
	wbShare := 1.0
	if allWB > 0 {
		wbShare = flowWB / allWB
	}
	bd.Stall[PathDWr][CompSB] = sbStall * wrFrac
	bd.Stall[PathDWr][CompCHA] = s.CHASum(pmu.TOROccupancyIAWBMToI) * wbShare
	bd.Stall[PathDWr][CompFlexBusMC] = m2pWrite*wbShare + devWrites*wbShare*k.LinkTransit
	bd.Stall[PathDWr][CompCXLDIMM] = devWriteOcc * wbShare
}
