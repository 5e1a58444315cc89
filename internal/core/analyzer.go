package core

// QueueReport is PFAnalyzer's output: Little's-law queue-length estimates
// per (path, component), and the culprit — the maximum-occupancy pair that
// bottlenecks the snapshot (Algorithm 1).
type QueueReport struct {
	Q           [PathCount][CompCount]float64
	CulpritPath PathType
	CulpritComp Component

	// DeviceDark marks a window in which the profiled CXL device was
	// surprise-removed: its banks stopped counting mid-run, so the CXL
	// rows reflect only the pre-removal fraction of the window.  The
	// estimates stay finite (every divisor is guarded) but should be read
	// as partial.
	DeviceDark bool
}

// Component returns one component's estimated queue length summed over
// every path, in Paths() order.
func (r *QueueReport) Component(c Component) float64 {
	var t float64
	for _, p := range Paths() {
		t += r.Q[p][c]
	}
	return t
}
