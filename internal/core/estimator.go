package core

import "pathfinder/internal/sim"

// Consts is the white-box architectural model PathFinder carries for the
// profiled machine: fixed per-hop latencies used where no counter measures
// a segment directly (the paper assigns W_tag "a constant cycle value based
// on the hardware capacity and associativity", §4.5).
type Consts struct {
	L1Lat, L1Tag   float64
	L2Lat, L2Tag   float64
	LLCLat, LLCTag float64
	Mesh           float64
	LinkTransit    float64 // FlexBus round trip + device controller (cycles)
}

// ConstsFor derives the white-box constants from a machine configuration —
// the knowledge an operator has about their own server part.
func ConstsFor(cfg sim.Config) Consts {
	return Consts{
		L1Lat: float64(cfg.L1Lat), L1Tag: float64(cfg.L1TagLat),
		L2Lat: float64(cfg.L2Lat), L2Tag: float64(cfg.L2TagLat),
		LLCLat: float64(cfg.LLCLat), LLCTag: float64(cfg.LLCTagLat),
		Mesh:        float64(cfg.MeshLat),
		LinkTransit: float64(2*cfg.FlexBusLat + cfg.CXLCtrlLat + 2*cfg.M2PLat),
	}
}

// StallBreakdown is PFEstimator's output: CXL-induced stall cycles
// attributed to each component along each path (Figure 6).
type StallBreakdown struct {
	Stall [PathCount][CompCount]float64

	// DeviceDark marks a window in which the profiled CXL device was
	// surprise-removed mid-run; see QueueReport.DeviceDark.
	DeviceDark bool
}

// Total returns a path's total attributed stall cycles.
func (b *StallBreakdown) Total(p PathType) float64 {
	var t float64
	for _, v := range b.Stall[p] {
		t += v
	}
	return t
}

// Component returns one component's attributed stall cycles summed over
// every path, in Paths() order.
func (b *StallBreakdown) Component(c Component) float64 {
	var t float64
	for _, p := range Paths() {
		t += b.Stall[p][c]
	}
	return t
}

// Share returns the fraction of a path's stall at one component.
func (b *StallBreakdown) Share(p PathType, c Component) float64 {
	t := b.Total(p)
	if t == 0 {
		return 0
	}
	return b.Stall[p][c] / t
}
