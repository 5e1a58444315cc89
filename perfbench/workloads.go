package main

import (
	"fmt"
	"math"
	"time"

	"pathfinder/internal/mem"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Memory nodes of the profiled address space, as pathfinder builds it.
const (
	nodeLocal mem.NodeID = 0
	nodeCXL   mem.NodeID = 2
)

// appSpec pins one catalog application to the next free core, with its
// working set on one memory node.
type appSpec struct {
	name string
	node mem.NodeID
}

// workloadSpec is one benchmark workload: a pathfinder-style profile of
// apps (one per core, from core 0), run for a fixed number of fixed-length
// epochs, optionally followed by the fig2/3/4 characterisation suite.
type workloadSpec struct {
	name        string
	apps        []appSpec
	wsMB        uint64
	epochCycles sim.Cycles
	epochs      int
	suite       bool

	// repSeconds is about how long one run of the workload takes on a
	// 2-vCPU host.  It turns --seconds into a fixed run count, so two
	// commits compared at the same --seconds do the same work.
	repSeconds float64
}

// alternate places apps on local DDR and CXL in turn, starting local.
func alternate(names ...string) []appSpec {
	out := make([]appSpec, len(names))
	for i, n := range names {
		out[i] = appSpec{name: n, node: nodeLocal}
		if i%2 == 1 {
			out[i].node = nodeCXL
		}
	}
	return out
}

// profile32Apps returns one catalog app per SPR core: the catalog in order,
// skipping the real-algorithm substrates, whose in-region graph and hash
// table builds would turn the workload into a set-up benchmark.
func profile32Apps() []string {
	var out []string
	for _, a := range workload.Catalog() {
		if a.Shape == workload.ShapeBFSReal || a.Shape == workload.ShapeKVReal {
			continue
		}
		out = append(out, a.Name)
		if len(out) == 32 {
			break
		}
	}
	return out
}

// workloads are the benchmark's workloads; README.md gives the reasons at
// length.  The epoch counts of stream-4c and char-fig234 keep p50 and p90
// off the steep part of the cold-to-warm epoch-time curve, where a small
// shift of the curve would move them a lot.
var workloads = []workloadSpec{
	{
		// Read-mostly streaming: sim core stepping, the observer lane, the
		// flight recorder and CXL reads do nearly all the work.
		name: "stream-4c",
		apps: []appSpec{
			{"LBM", nodeCXL}, {"STREAM", nodeCXL}, {"BWA", nodeLocal}, {"NAM", nodeLocal},
		},
		wsMB:        64,
		epochCycles: 100_000,
		epochs:      80,
		repSeconds:  4.4,
	},
	{
		// The store side: store buffer, RFOs, dirty evictions and CXL
		// writebacks; building the hash tables makes set-up real work.
		name:        "kv-write-4c",
		apps:        alternate("YCSB-A-HT", "YCSB-A-HT", "YCSB-A-HT", "YCSB-A-HT"),
		wsMB:        512,
		epochCycles: 100_000,
		epochs:      120,
		repSeconds:  3.3,
	},
	{
		// Fine-grained snapshots of all 32 cores: capture, the analyses,
		// the materializer and reports take over a quarter of the time.
		name:        "profile-32c",
		apps:        alternate(profile32Apps()...),
		wsMB:        64,
		epochCycles: 200,
		epochs:      5000,
		repSeconds:  5.6,
	},
	{
		// The only workload through the experiments pool; the profile of
		// the six characterised apps gives it the epoch and accuracy metrics.
		name:        "char-fig234",
		apps:        alternate("LBM", "ROMS", "CAC", "BWA", "MCF", "LEE"),
		wsMB:        32,
		epochCycles: 20_000,
		epochs:      200,
		suite:       true,
		repSeconds:  18,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tiny shrinks a workload for the self-test: short epochs and small working
// sets, but still enough epochs for a p90.  The characterisation suite has
// no size knob and runs as is.
func (w workloadSpec) tiny() workloadSpec {
	w.wsMB = 4
	w.epochCycles = 1_000
	w.epochs = 100
	return w
}

// runs returns how many runs fill about the given measuring time: at least
// two, so every median spans runs, and enough that the pooled epochs put
// ten beyond p90.
func (w workloadSpec) runs(seconds time.Duration) int {
	n := int(math.Round(seconds.Seconds() / w.repSeconds))
	if n < 2 {
		n = 2
	}
	if min := (10*minTail + w.epochs - 1) / w.epochs; n < min {
		n = min
	}
	return n
}

// appSeed derives application i's generator seed from the run seed.
func appSeed(seed uint64, i int) uint64 {
	return seed*1_000_003 + uint64(i) + 1
}
