package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/cxl"
	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// Golden equivalence: the columnar arena conversion must be behaviour
// preserving.  This file carries a verbatim copy of the seed (pre-arena)
// string-keyed snapshot read path and analysis bodies; the tests run
// fixed-seed workloads and require the arena analyzer, estimator, builder,
// and digest outputs to be bit-identical to the legacy computation.

// legacySnap is the seed Snapshot layout: per-bank delta vectors keyed by
// name, with reads resolved by Sprintf + map lookup and sums accumulated
// in float64 — exactly as the pre-arena code did.
type legacySnap struct {
	start, end               uint64
	deltas                   map[string][]uint64
	nCores, nCHA, nIMC, nCXL int
}

// legacyView rebuilds the seed layout from an arena snapshot.  The arena
// capturer differences bank totals with the same uint64 subtraction the
// seed capturer used, so the per-bank vectors are the seed vectors.
func legacyView(s *Snapshot) *legacySnap {
	ls := &legacySnap{
		start:  s.Start,
		end:    s.End,
		deltas: make(map[string][]uint64, s.idx.NumBanks()),
	}
	for _, name := range s.idx.names {
		v := make([]uint64, s.idx.eventCount)
		copy(v, s.bankDelta(name))
		ls.deltas[name] = v
		switch {
		case strings.HasPrefix(name, "core"):
			ls.nCores++
		case strings.HasPrefix(name, "cha"):
			ls.nCHA++
		case strings.HasPrefix(name, "imc"):
			ls.nIMC++
		case strings.HasPrefix(name, "cxl"):
			ls.nCXL++
		}
	}
	return ls
}

func (s *legacySnap) cycles() float64 { return float64(s.end - s.start) }

func (s *legacySnap) read(name string, e pmu.Event) float64 {
	d := s.deltas[name]
	if d == nil {
		return 0
	}
	return float64(d[e])
}

func (s *legacySnap) core(i int, e pmu.Event) float64 {
	return s.read(fmt.Sprintf("core%d", i), e)
}

func (s *legacySnap) coreSum(cores []int, e pmu.Event) float64 {
	if cores == nil {
		var t float64
		for i := 0; i < s.nCores; i++ {
			t += s.core(i, e)
		}
		return t
	}
	var t float64
	for _, i := range cores {
		t += s.core(i, e)
	}
	return t
}

func (s *legacySnap) chaSum(e pmu.Event) float64 {
	var t float64
	for i := 0; i < s.nCHA; i++ {
		t += s.read(fmt.Sprintf("cha%d", i), e)
	}
	return t
}

func (s *legacySnap) imcSum(e pmu.Event) float64 {
	var t float64
	for i := 0; i < s.nIMC; i++ {
		t += s.read(fmt.Sprintf("imc%d", i), e)
	}
	return t
}

func (s *legacySnap) m2p(dev int, e pmu.Event) float64 {
	return s.read(fmt.Sprintf("m2pcie%d", dev), e)
}

func (s *legacySnap) cxlRead(dev int, e pmu.Event) float64 {
	return s.read(fmt.Sprintf("cxl%d", dev), e)
}

func (s *legacySnap) famSum(cores []int, fam pmu.Family, scn int) float64 {
	return s.coreSum(cores, fam.At(scn))
}

// legacyBuildPathMap is the seed PFBuilder body.
func legacyBuildPathMap(s *legacySnap, cores []int) *PathMap {
	pm := &PathMap{Cores: cores}
	cs := func(e pmu.Event) float64 { return s.coreSum(cores, e) }
	fam := func(f pmu.Family, scn int) float64 { return s.famSum(cores, f, scn) }

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

	rfo := &pm.Load[PathRFO]
	rfo[LvlL2] = cs(pmu.L2RFOHit)
	rfo[LvlLocalLLC] = fam(pmu.OCRRFO, pmu.ScnHit)
	rfo[LvlRemoteLLC] = 0
	rfo[LvlLocalDRAM] = fam(pmu.OCRRFO, pmu.ScnMissLocalDDR)
	rfo[LvlRemoteDRAM] = fam(pmu.OCRRFO, pmu.ScnMissRemoteDDR)
	rfo[LvlCXL] = fam(pmu.OCRRFO, pmu.ScnMissCXL)

	hw := &pm.Load[PathHWPF]
	pfScn := func(scn int) float64 {
		return fam(pmu.OCRL1DHWPF, scn) + fam(pmu.OCRL2HWPFDRd, scn) + fam(pmu.OCRL2HWPFRFO, scn)
	}
	hw[LvlL2] = cs(pmu.L2HWPFHit)
	hitLLC := pfScn(pmu.ScnHit)
	if dl, ds := drd[LvlLocalLLC], drd[LvlSNCLLC]; dl+ds > 0 {
		hw[LvlLocalLLC] = hitLLC * dl / (dl + ds)
		hw[LvlSNCLLC] = hitLLC * ds / (dl + ds)
	} else {
		hw[LvlLocalLLC] = hitLLC
	}
	hw[LvlLocalDRAM] = pfScn(pmu.ScnMissLocalDDR)
	hw[LvlRemoteDRAM] = pfScn(pmu.ScnMissRemoteDDR)
	hw[LvlCXL] = pfScn(pmu.ScnMissCXL)

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
	dwr[LvlLocalLLC] = cs(pmu.OCRModifiedWriteAny)

	flowWB := cs(pmu.OCRModifiedWriteAny)
	allWB := s.coreSum(nil, pmu.OCRModifiedWriteAny)
	share := 1.0
	if allWB > 0 {
		share = flowWB / allWB
	}
	dwr[LvlLocalDRAM] = s.imcSum(pmu.WPQInserts) * share
	var cxlWr float64
	for d := 0; d < s.nCXL; d++ {
		cxlWr += s.cxlRead(d, pmu.CXLRxPackBufInsertsData)
	}
	dwr[LvlCXL] = cxlWr * share

	return pm
}

// legacyEstimateStalls is the seed PFEstimator body.
func legacyEstimateStalls(s *legacySnap, cores []int, dev int, k Consts) *StallBreakdown {
	bd := &StallBreakdown{}

	flowReads := map[PathType]float64{
		PathDRd: s.famSum(cores, pmu.OCRDemandDataRd, pmu.ScnMissCXL),
		PathRFO: s.famSum(cores, pmu.OCRRFO, pmu.ScnMissCXL),
		PathHWPF: s.famSum(cores, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
			s.famSum(cores, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
			s.famSum(cores, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL),
	}
	allReads := map[PathType]float64{
		PathDRd: s.famSum(nil, pmu.OCRDemandDataRd, pmu.ScnMissCXL),
		PathRFO: s.famSum(nil, pmu.OCRRFO, pmu.ScnMissCXL),
		PathHWPF: s.famSum(nil, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
			s.famSum(nil, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
			s.famSum(nil, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL),
	}

	devReadOcc := s.cxlRead(dev, pmu.CXLDevRPQOccupancy) + s.cxlRead(dev, pmu.CXLRxPackBufOccReq)
	devWriteOcc := s.cxlRead(dev, pmu.CXLDevWPQOccupancy) + s.cxlRead(dev, pmu.CXLRxPackBufOccData)
	devReads := s.cxlRead(dev, pmu.CXLRxPackBufInsertsReq)
	devWrites := s.cxlRead(dev, pmu.CXLRxPackBufInsertsData)

	m2pOcc := s.m2p(dev, pmu.M2PRxOccupancy)
	rdResp := s.m2p(dev, pmu.M2PTxInsertsBL)
	wrAck := s.m2p(dev, pmu.M2PTxInsertsAK)
	m2pRead, m2pWrite := m2pOcc, 0.0
	if rdResp+wrAck > 0 {
		m2pRead = m2pOcc * rdResp / (rdResp + wrAck)
		m2pWrite = m2pOcc - m2pRead
	}

	torOcc := map[PathType]float64{
		PathDRd: s.chaSum(pmu.TOROccupancyIADRd[pmu.ScnMissCXL]),
		PathRFO: s.chaSum(pmu.TOROccupancyIARFO[pmu.RFOMissCXL]),
		PathHWPF: s.chaSum(pmu.TOROccupancyIADRdPref[pmu.ScnMissCXL]) +
			s.chaSum(pmu.TOROccupancyIARFOPref[pmu.RFOMissCXL]),
	}

	for _, p := range []PathType{PathDRd, PathRFO, PathHWPF} {
		fr := flowReads[p]
		if fr == 0 {
			continue
		}
		devShare := 0.0
		if devReads > 0 {
			devShare = fr / devReads
		}
		flowFrac := 1.0
		if allReads[p] > 0 {
			flowFrac = fr / allReads[p]
		}
		bd.Stall[p][CompCXLDIMM] = devReadOcc * devShare
		bd.Stall[p][CompFlexBusMC] = m2pRead*devShare + fr*k.LinkTransit
		tor := torOcc[p] * flowFrac
		chaOwn := tor - bd.Stall[p][CompCXLDIMM] - bd.Stall[p][CompFlexBusMC] - fr*k.Mesh
		if chaOwn < 0 {
			chaOwn = 0
		}
		bd.Stall[p][CompCHA] = chaOwn
		bd.Stall[p][CompLLC] = fr * k.LLCTag
	}

	all := s.chaSum(pmu.TOROccupancyIA[pmu.IAAll])
	frac := 0.0
	if all > 0 {
		frac = s.chaSum(pmu.TOROccupancyIA[pmu.IAMissCXL]) / all
		if frac > 1 {
			frac = 1
		}
	}
	stL1 := s.coreSum(cores, pmu.StallsL1DMiss)
	stL2 := s.coreSum(cores, pmu.StallsL2Miss)
	stL3 := s.coreSum(cores, pmu.StallsL3Miss)
	own := func(a, b float64) float64 {
		if a > b {
			return a - b
		}
		return 0
	}
	bd.Stall[PathDRd][CompL1D] = own(stL1, stL2) * frac
	bd.Stall[PathDRd][CompLFB] = s.coreSum(cores, pmu.L1DPendMissFBFull) * frac
	bd.Stall[PathDRd][CompL2] = own(stL2, stL3) * frac

	bd.Stall[PathRFO][CompL1D] = flowReads[PathRFO] * k.L1Tag
	bd.Stall[PathRFO][CompL2] = flowReads[PathRFO] * k.L2Tag
	bd.Stall[PathHWPF][CompL2] = flowReads[PathHWPF] * k.L2Tag

	sbStall := s.coreSum(cores, pmu.ResourceStallsSB) + s.coreSum(cores, pmu.ExeBoundOnStores)
	localWr := s.imcSum(pmu.WPQInserts)
	wrFrac := 0.0
	if devWrites+localWr > 0 {
		wrFrac = devWrites / (devWrites + localWr)
	}
	flowWB := s.coreSum(cores, pmu.OCRModifiedWriteAny)
	allWB := s.coreSum(nil, pmu.OCRModifiedWriteAny)
	wbShare := 1.0
	if allWB > 0 {
		wbShare = flowWB / allWB
	}
	bd.Stall[PathDWr][CompSB] = sbStall * wrFrac
	bd.Stall[PathDWr][CompCHA] = s.chaSum(pmu.TOROccupancyIAWBMToI) * wbShare
	bd.Stall[PathDWr][CompFlexBusMC] = m2pWrite*wbShare + devWrites*wbShare*k.LinkTransit
	bd.Stall[PathDWr][CompCXLDIMM] = devWriteOcc * wbShare

	return bd
}

// legacyPathHitMiss, legacyLLCMissDelay, legacyCXLPathReads, and
// legacyAnalyzeQueues are the seed PFAnalyzer bodies.
func legacyPathHitMiss(s *legacySnap, cores []int, p PathType, c Component) (hit, miss float64) {
	switch c {
	case CompL1D:
		if p == PathDRd {
			return s.coreSum(cores, pmu.MemLoadL1Hit), s.coreSum(cores, pmu.MemLoadL1Miss)
		}
	case CompL2:
		switch p {
		case PathDRd:
			return s.coreSum(cores, pmu.L2DemandDataRdHit), s.coreSum(cores, pmu.L2DemandDataRdMiss)
		case PathRFO:
			return s.coreSum(cores, pmu.L2RFOHit), s.coreSum(cores, pmu.L2RFOMiss)
		case PathHWPF:
			return s.coreSum(cores, pmu.L2HWPFHit), s.coreSum(cores, pmu.L2HWPFMiss)
		}
	case CompLLC:
		var fams []pmu.Family
		switch p {
		case PathDRd:
			fams = []pmu.Family{pmu.OCRDemandDataRd}
		case PathRFO:
			fams = []pmu.Family{pmu.OCRRFO}
		case PathHWPF:
			fams = []pmu.Family{pmu.OCRL1DHWPF, pmu.OCRL2HWPFDRd, pmu.OCRL2HWPFRFO}
		}
		for _, f := range fams {
			hit += s.famSum(cores, f, pmu.ScnHit)
			miss += s.famSum(cores, f, pmu.ScnMiss)
		}
		return hit, miss
	}
	return 0, 0
}

func legacyLLCMissDelay(s *legacySnap, p PathType) float64 {
	var occ, ins float64
	switch p {
	case PathDRd:
		occ = s.chaSum(pmu.TOROccupancyIADRd[pmu.ScnMiss])
		ins = s.chaSum(pmu.TORInsertsIADRd[pmu.ScnMiss])
	case PathRFO:
		occ = s.chaSum(pmu.TOROccupancyIARFO[pmu.RFOMiss])
		ins = s.chaSum(pmu.TORInsertsIARFO[pmu.RFOMiss])
	case PathHWPF:
		occ = s.chaSum(pmu.TOROccupancyIADRdPref[pmu.ScnMiss]) +
			s.chaSum(pmu.TOROccupancyIARFOPref[pmu.RFOMiss])
		ins = s.chaSum(pmu.TORInsertsIADRdPref[pmu.ScnMiss]) +
			s.chaSum(pmu.TORInsertsIARFOPref[pmu.RFOMiss])
	}
	if ins == 0 {
		return 0
	}
	return occ / ins
}

func legacyCXLPathReads(s *legacySnap, cores []int, p PathType) float64 {
	switch p {
	case PathDRd:
		return s.famSum(cores, pmu.OCRDemandDataRd, pmu.ScnMissCXL)
	case PathRFO:
		return s.famSum(cores, pmu.OCRRFO, pmu.ScnMissCXL)
	case PathHWPF:
		return s.famSum(cores, pmu.OCRL1DHWPF, pmu.ScnMissCXL) +
			s.famSum(cores, pmu.OCRL2HWPFDRd, pmu.ScnMissCXL) +
			s.famSum(cores, pmu.OCRL2HWPFRFO, pmu.ScnMissCXL)
	}
	return 0
}

func legacyAnalyzeQueues(s *legacySnap, cores []int, dev int, k Consts) *QueueReport {
	r := &QueueReport{}
	clocks := s.cycles()
	if clocks == 0 {
		return r
	}

	devReads := s.cxlRead(dev, pmu.CXLRxPackBufInsertsReq)
	devReadOcc := s.cxlRead(dev, pmu.CXLDevRPQOccupancy) + s.cxlRead(dev, pmu.CXLRxPackBufOccReq)
	m2pIns := s.m2p(dev, pmu.M2PRxInserts)
	m2pOcc := s.m2p(dev, pmu.M2PRxOccupancy)

	for _, p := range []PathType{PathDRd, PathRFO, PathHWPF} {
		for _, c := range []Component{CompL1D, CompL2} {
			hit, miss := legacyPathHitMiss(s, cores, p, c)
			wHit, wTag := k.L1Lat, k.L1Tag
			if c == CompL2 {
				wHit, wTag = k.L2Lat, k.L2Tag
			}
			r.Q[p][c] = (hit*wHit + miss*wTag) / clocks
		}
		hit, miss := legacyPathHitMiss(s, cores, p, CompLLC)
		r.Q[p][CompLLC] = (hit*k.LLCLat + miss*legacyLLCMissDelay(s, p)) / clocks

		if p == PathDRd {
			fills := s.coreSum(cores, pmu.MemLoadL1Miss)
			offIns := s.coreSum(cores, pmu.OffcoreDataRd)
			var wFill float64
			if offIns > 0 {
				wFill = s.coreSum(cores, pmu.ORODataRd) / offIns
			}
			r.Q[p][CompLFB] = fills * wFill / clocks
		}

		fr := legacyCXLPathReads(s, cores, p)
		if devReads > 0 && fr > 0 {
			var wFlex float64
			if m2pIns > 0 {
				wFlex = m2pOcc/m2pIns + k.LinkTransit
			}
			r.Q[p][CompFlexBusMC] = (fr / clocks) * wFlex
			r.Q[p][CompCXLDIMM] = devReadOcc * (fr / devReads) / clocks
		}
	}

	best := -1.0
	for _, p := range Paths() {
		for _, c := range Components() {
			if r.Q[p][c] > best {
				best = r.Q[p][c]
				r.CulpritPath, r.CulpritComp = p, c
			}
		}
	}
	return r
}

// legacyEncodeDigest is the seed digest encoder over the map layout.
func legacyEncodeDigest(seq int, s *legacySnap) Digest {
	var buf []byte
	buf = append(buf, digestMagic...)
	buf = append(buf, digestVersion)
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = binary.AppendUvarint(buf, s.start)
	buf = binary.AppendUvarint(buf, s.end)

	names := make([]string, 0, len(s.deltas))
	for name := range s.deltas {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		vals := s.deltas[name]
		nz := 0
		for _, v := range vals {
			if v != 0 {
				nz++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(nz))
		prev := -1
		for i, v := range vals {
			if v == 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(i-prev))
			buf = binary.AppendUvarint(buf, v)
			prev = i
		}
	}
	return buf
}

// goldenCompare runs every analysis on both layouts and requires
// bit-identical output.
func goldenCompare(t *testing.T, name string, s *Snapshot, cores []int, k Consts) {
	t.Helper()
	ls := legacyView(s)
	plan := NewPlan(s.Index(), cores, 0)

	var pmNew PathMap
	plan.BuildPathMapInto(s, &pmNew)
	pmOld := legacyBuildPathMap(ls, cores)
	if pmNew.Load != pmOld.Load {
		t.Fatalf("%s: path map diverged\nnew: %+v\nold: %+v", name, pmNew.Load, pmOld.Load)
	}

	var bdNew StallBreakdown
	plan.EstimateStallsInto(s, k, &bdNew)
	bdOld := legacyEstimateStalls(ls, cores, 0, k)
	if bdNew.Stall != bdOld.Stall {
		t.Fatalf("%s: stall breakdown diverged\nnew: %+v\nold: %+v", name, bdNew.Stall, bdOld.Stall)
	}

	var qrNew QueueReport
	plan.AnalyzeQueuesInto(s, k, &qrNew)
	qrOld := legacyAnalyzeQueues(ls, cores, 0, k)
	if qrNew.Q != qrOld.Q {
		t.Fatalf("%s: queue report diverged\nnew: %+v\nold: %+v", name, qrNew.Q, qrOld.Q)
	}
	if qrNew.CulpritPath != qrOld.CulpritPath || qrNew.CulpritComp != qrOld.CulpritComp {
		t.Fatalf("%s: culprit diverged: %v/%v vs %v/%v", name,
			qrNew.CulpritPath, qrNew.CulpritComp, qrOld.CulpritPath, qrOld.CulpritComp)
	}

	dNew := EncodeDigest(s)
	dOld := legacyEncodeDigest(s.Seq, ls)
	if !bytes.Equal(dNew, dOld) {
		t.Fatalf("%s: digest bytes diverged (%d vs %d bytes)", name, len(dNew), len(dOld))
	}
}

func TestGoldenEquivalenceStream(t *testing.T) {
	m, local, cxlReg := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 1, 0.2, 1))
	m.Attach(1, workload.NewStream(region(cxlReg), 1, 0.3, 2))
	for e := 0; e < 3; e++ {
		m.Run(1_000_000)
		s := cap.Capture()
		goldenCompare(t, fmt.Sprintf("stream epoch %d", e), s, []int{1}, k)
		goldenCompare(t, fmt.Sprintf("stream epoch %d (all cores)", e), s, nil, k)
	}
}

func TestGoldenEquivalenceChase(t *testing.T) {
	m, _, cxlReg := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	app, ok := workload.Lookup("BFS")
	if !ok {
		t.Fatal("unknown app BFS")
	}
	m.Attach(0, app.Generator(region(cxlReg), 11))
	m.Attach(1, workload.NewPointerChase(region(cxlReg), 2, 5))
	for e := 0; e < 2; e++ {
		m.Run(2_000_000)
		s := cap.Capture()
		goldenCompare(t, fmt.Sprintf("chase epoch %d", e), s, []int{0}, k)
	}
}

func TestGoldenEquivalenceFaultPlan(t *testing.T) {
	m, _, cxlReg := testRig(t)
	k := ConstsFor(m.Config())
	m.SetFaultPlan(0, &cxl.FaultPlan{
		Seed:    7,
		CRCRate: [2]float64{0.01, 0.01},
		Bursts: []cxl.Burst{
			{Dir: cxl.DirS2M, Start: 200_000, Len: 100_000, Period: 500_000, Rate: 0.4},
		},
		Timeouts: []cxl.Episode{{Start: 400_000, Len: 50_000, Period: 600_000}},
	})
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxlReg), 2, 0.2, 3))
	m.Attach(2, workload.NewStream(region(cxlReg), 2, 0.2, 4))
	for e := 0; e < 3; e++ {
		m.Run(1_500_000)
		s := cap.Capture()
		goldenCompare(t, fmt.Sprintf("faulty epoch %d", e), s, []int{0}, k)
		goldenCompare(t, fmt.Sprintf("faulty epoch %d (all cores)", e), s, nil, k)
	}
}
