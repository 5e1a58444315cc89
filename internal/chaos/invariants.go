package chaos

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
)

// Probe is everything an invariant monitor may inspect: the case, the
// rig configuration, the end-of-run snapshot, and the analysis outputs
// computed from it.
type Probe struct {
	Case     Case
	Cfg      sim.Config
	Snapshot *core.Snapshot
	Queues   *core.QueueReport
	Stalls   *core.StallBreakdown
	Measured [core.CompCount]float64
}

// Invariant is one monitor: Check returns "" when the invariant holds,
// otherwise a human-readable violation detail.
type Invariant struct {
	Name  string
	Check func(*Probe) string
}

// caseCores are the cores the chaos rig profiles.
var caseCores = []int{0, 1}

func newProbe(c Case, cfg sim.Config, m *sim.Machine, snap *core.Snapshot) *Probe {
	k := core.ConstsFor(cfg)
	p := &Probe{
		Case:     c,
		Cfg:      cfg,
		Snapshot: snap,
		Queues:   &core.QueueReport{},
		Stalls:   &core.StallBreakdown{},
	}
	plan := core.NewPlan(snap.Index(), caseCores, 0)
	plan.AnalyzeQueuesInto(snap, k, p.Queues)
	plan.EstimateStallsInto(snap, k, p.Stalls)
	plan.MeasuredQueuesInto(snap, &p.Measured)
	return p
}

// invariants returns the built-in monitor list.  (A fresh slice per call:
// Run appends the caller's extras to it.)
func invariants() []Invariant {
	return []Invariant{
		{Name: "pmu-conservation", Check: checkConservation},
		{Name: "queue-residency", Check: checkQueueResidency},
		{Name: "no-nan", Check: checkNoNaN},
	}
}

// checkConservation verifies flow conservation through the CXL port's
// counters: queue inserts minus completions must leave a residue within
// the queue's capacity, and the link's CRC/retry pair must move in
// lockstep.
func checkConservation(p *Probe) string {
	s := p.Snapshot
	rpqIns := s.CXL(0, pmu.CXLDevRPQInserts)
	casRd := s.CXL(0, pmu.CXLDevCASRd)
	if resident := rpqIns - casRd; resident < 0 || resident > float64(p.Cfg.CXLRPQEntries) {
		return fmt.Sprintf("RPQ inserts %.0f - reads served %.0f = %.0f resident, outside [0, %d]",
			rpqIns, casRd, resident, p.Cfg.CXLRPQEntries)
	}
	wpqIns := s.CXL(0, pmu.CXLDevWPQInserts)
	casWr := s.CXL(0, pmu.CXLDevCASWr)
	if resident := wpqIns - casWr; resident < 0 || resident > float64(p.Cfg.CXLWPQEntries) {
		return fmt.Sprintf("WPQ inserts %.0f - writes served %.0f = %.0f resident, outside [0, %d]",
			wpqIns, casWr, resident, p.Cfg.CXLWPQEntries)
	}
	// Every RPQ/WPQ insert passed through a packing buffer first.
	if packReq := s.CXL(0, pmu.CXLRxPackBufInsertsReq); packReq < rpqIns {
		return fmt.Sprintf("RPQ inserts %.0f exceed packing-buffer req inserts %.0f", rpqIns, packReq)
	}
	if packData := s.CXL(0, pmu.CXLRxPackBufInsertsData); packData < wpqIns {
		return fmt.Sprintf("WPQ inserts %.0f exceed packing-buffer data inserts %.0f", wpqIns, packData)
	}
	if crc, retries := s.CXL(0, pmu.CXLLinkCRCErrors), s.CXL(0, pmu.CXLLinkRetries); crc != retries {
		return fmt.Sprintf("CRC errors %.0f != link retries %.0f", crc, retries)
	}
	return ""
}

// checkQueueResidency verifies the measured occupancy integrals respect
// the configured queue capacities — the time-averaged length of a bounded
// queue can never exceed its entry count — and that PFAnalyzer's queue
// estimates stay non-negative.
func checkQueueResidency(p *Probe) string {
	s := p.Snapshot
	clocks := s.Cycles()
	if clocks == 0 {
		return ""
	}
	caps := []struct {
		name string
		occ  pmu.Event
		cap  int
	}{
		{"device RPQ", pmu.CXLDevRPQOccupancy, p.Cfg.CXLRPQEntries},
		{"device WPQ", pmu.CXLDevWPQOccupancy, p.Cfg.CXLWPQEntries},
		{"pack buf req", pmu.CXLRxPackBufOccReq, p.Cfg.PackBufEntries},
		{"pack buf data", pmu.CXLRxPackBufOccData, p.Cfg.PackBufEntries},
	}
	const slack = 1e-6
	for _, c := range caps {
		if avg := s.CXL(0, c.occ) / clocks; avg > float64(c.cap)+slack {
			return fmt.Sprintf("%s average occupancy %.3f exceeds capacity %d", c.name, avg, c.cap)
		}
	}
	bound := float64(p.Cfg.CXLRPQEntries + p.Cfg.CXLWPQEntries + 2*p.Cfg.PackBufEntries)
	if got := p.Measured[core.CompCXLDIMM]; got > bound+slack {
		return fmt.Sprintf("measured CXL DIMM queue %.3f exceeds total capacity %.0f", got, bound)
	}
	lfbBound := float64(p.Cfg.LFBEntries * p.Cfg.Cores)
	if got := p.Measured[core.CompLFB]; got > lfbBound+slack {
		return fmt.Sprintf("measured LFB queue %.3f exceeds %d entries x %d cores",
			got, p.Cfg.LFBEntries, p.Cfg.Cores)
	}
	for pt := range p.Queues.Q {
		for c, v := range p.Queues.Q[pt] {
			if v < 0 {
				return fmt.Sprintf("PFAnalyzer estimate Q[%d][%d] = %g is negative", pt, c, v)
			}
		}
	}
	return ""
}

// checkNoNaN walks every analysis output for NaN/Inf — the signature of
// an unguarded division when counters go dark mid-run.
func checkNoNaN(p *Probe) string {
	for pt := range p.Queues.Q {
		for c, v := range p.Queues.Q[pt] {
			if !finite(v) {
				return fmt.Sprintf("queue estimate Q[%d][%d] = %v", pt, c, v)
			}
		}
	}
	for pt := range p.Stalls.Stall {
		for c, v := range p.Stalls.Stall[pt] {
			if !finite(v) {
				return fmt.Sprintf("stall estimate [%d][%d] = %v", pt, c, v)
			}
		}
	}
	for c, v := range p.Measured {
		if !finite(v) {
			return fmt.Sprintf("measured queue %v = %v", core.Component(c), v)
		}
	}
	return ""
}
