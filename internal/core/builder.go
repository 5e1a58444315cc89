package core

// PathMap is PFBuilder's output: per-path traffic load (request hits) at
// each level of the hierarchy, from the store buffer down to the memory
// devices — the structure of Table 7.
type PathMap struct {
	Cores []int // nil means all cores
	Load  [PathCount][LevelCount]float64
}

// PathTotal returns the total traffic load of a path across all levels.
func (pm *PathMap) PathTotal(p PathType) float64 {
	var t float64
	for _, v := range pm.Load[p] {
		t += v
	}
	return t
}

// LevelTotal returns the total traffic at one level across all paths.
func (pm *PathMap) LevelTotal(l Level) float64 {
	var t float64
	for p := range pm.Load {
		t += pm.Load[p][l]
	}
	return t
}

// UncoreTotal returns a path's traffic beyond the L2 (the uncore region).
func (pm *PathMap) UncoreTotal(p PathType) float64 {
	var t float64
	for l := LvlLocalLLC; l < LevelCount; l++ {
		t += pm.Load[p][l]
	}
	return t
}

// HotPathCore returns the path with the most on-core traffic (SB..L2).
func (pm *PathMap) HotPathCore() PathType {
	best, bestV := PathDRd, -1.0
	for _, p := range Paths() {
		var v float64
		for l := LvlSB; l <= LvlL2; l++ {
			v += pm.Load[p][l]
		}
		if v > bestV {
			best, bestV = p, v
		}
	}
	return best
}

// HotPathUncore returns the path with the most uncore traffic, and its
// share of all uncore traffic.
func (pm *PathMap) HotPathUncore() (PathType, float64) {
	var total float64
	best, bestV := PathDRd, -1.0
	for _, p := range Paths() {
		v := pm.UncoreTotal(p)
		total += v
		if v > bestV {
			best, bestV = p, v
		}
	}
	if total == 0 {
		return best, 0
	}
	return best, bestV / total
}

// CXLShare returns the fraction of a path's uncore traffic served by CXL
// memory.
func (pm *PathMap) CXLShare(p PathType) float64 {
	u := pm.UncoreTotal(p)
	if u == 0 {
		return 0
	}
	return pm.Load[p][LvlCXL] / u
}

// CXLTraffic returns the total CXL-served traffic across paths — the
// request frequency PFBuilder reports for bandwidth inference (Case 5).
func (pm *PathMap) CXLTraffic() float64 {
	return pm.LevelTotal(LvlCXL)
}
