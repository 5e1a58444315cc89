package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"strings"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Pathfinder's defaults: the LLC shrunk 4x for scaled working sets, and the
// flight recorder's ring and tail capacities.
const (
	llcScale   = 4
	flightRing = 4096
	flightTail = 512
)

// rig is one freshly built profiling set-up; every cache starts empty.  The
// untraced loop drives prof; the traced loop drives the same public calls
// Profiler.Step makes, through its own capturer, plans and materializer.
type rig struct {
	w    workloadSpec
	m    *sim.Machine
	fl   *obs.Flight
	runs []core.AppRun

	prof *core.Profiler

	cap   *core.Capturer
	plans []*core.Plan
	mat   *core.Materializer
	k     core.Consts
}

// newRig builds the address space, machine, generators and profiler (or,
// when traced, the profiler's parts), the way pathfinder does: default lane
// mode, flight recorder attached, obs.Default metrics.
func newRig(w workloadSpec, seed uint64, t *tracer, parent int) (*rig, error) {
	r := &rig{w: w}

	s := t.begin("setup.machine", parent)
	cfg := sim.SPR()
	cfg.LLCSize /= llcScale
	cfg.LLCSlices /= llcScale
	if cfg.LLCSlices < cfg.SNCClusters {
		cfg.LLCSlices = cfg.SNCClusters
	}
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 256 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 256 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 256 << 30},
	})
	r.m = sim.New(cfg, as)
	r.fl = obs.NewFlight(r.m.Cores(), flightRing, flightTail)
	r.fl.Enable()
	r.m.SetFlight(r.fl)
	r.fl.RegisterMetrics(obs.Default)
	t.end(s)

	s = t.begin("setup.workload", parent)
	for i, a := range w.apps {
		app, ok := workload.Lookup(a.name)
		if !ok {
			return nil, fmt.Errorf("unknown catalog app %q", a.name)
		}
		reg, err := as.Alloc(w.wsMB<<20, mem.Fixed(a.node))
		if err != nil {
			return nil, fmt.Errorf("allocating %s: %w", a.name, err)
		}
		r.runs = append(r.runs, core.AppRun{
			Label: fmt.Sprintf("%s/c%d", a.name, i),
			Core:  i,
			Gen:   app.Generator(workload.Region{Base: reg.Base, Size: reg.Size}, appSeed(seed, i)),
		})
	}
	t.end(s)

	s = t.begin("setup.profiler", parent)
	defer t.end(s)
	r.k = core.ConstsFor(cfg)
	if t == nil {
		p, err := core.NewProfiler(core.Spec{
			Machine:     r.m,
			Apps:        r.runs,
			EpochCycles: w.epochCycles,
			Epochs:      w.epochs,
			Mode:        core.ModeContinuous,
			Metrics:     obs.Default,
			Flight:      r.fl,
		})
		if err != nil {
			return nil, err
		}
		r.prof = p
		return r, nil
	}
	for _, run := range r.runs {
		r.m.Attach(run.Core, run.Gen)
	}
	r.cap = core.NewCapturer(r.m)
	for _, run := range r.runs {
		r.plans = append(r.plans, core.NewPlan(r.cap.Index(), []int{run.Core}, 0))
	}
	r.mat = core.NewMaterializer()
	return r, nil
}

// checker digests a run's output and measures PFAnalyzer against the
// simulator's ground truth.  It runs between timed intervals and allocates
// nothing per epoch, so it moves neither the timings nor alloc_mb.
type checker struct {
	h   hash.Hash
	buf []byte

	accuracy bool // off on repeat runs: the values are deterministic
	whole    *core.Plan
	k        core.Consts
	qr       core.QueueReport
	meas     [core.CompCount]float64

	residualSum           float64
	residualN             int
	agree, culpritEpochs  int
	cycles, ops           float64
	l1dMiss, l2Miss       float64
	llcMiss, cxlRd, cxlWr float64
}

func newChecker(k core.Consts, accuracy bool) *checker {
	return &checker{h: sha256.New(), k: k, accuracy: accuracy}
}

// accuracyComps are the components MeasuredQueuesInto integrates.
var accuracyComps = [...]core.Component{core.CompLFB, core.CompCHA, core.CompFlexBusMC, core.CompCXLDIMM}

// estimate returns PFAnalyzer's whole-machine queue estimate for c, summed
// over paths.  Algorithm 1 has no separate CHA row: its LLC queue uses the
// TOR residency as the miss delay, so the LLC estimate stands for the CHA.
func (c *checker) estimate(comp core.Component) float64 {
	var q float64
	for _, p := range core.Paths() {
		q += c.qr.Q[p][comp]
		if comp == core.CompCHA {
			q += c.qr.Q[p][core.CompLLC]
		}
	}
	return q
}

func (c *checker) epoch(s *core.Snapshot) {
	c.buf = core.AppendDigest(c.buf[:0], s)
	c.h.Write(c.buf)
	if !c.accuracy {
		return
	}
	if c.whole == nil {
		c.whole = core.NewPlan(s.Index(), nil, 0)
	}
	p := c.whole
	c.cycles += s.Cycles()
	c.ops += p.AllCoreSum(s, pmu.MemInstAllLoads) + p.AllCoreSum(s, pmu.MemInstAllStores)
	c.l1dMiss += p.AllCoreSum(s, pmu.MemLoadL1Miss)
	c.l2Miss += p.AllCoreSum(s, pmu.L2Miss)
	c.llcMiss += p.AllCoreSum(s, pmu.LongestLatCacheMiss)
	for dev := 0; dev < s.NumCXL(); dev++ {
		c.cxlRd += s.CXL(dev, pmu.CXLDevCASRd)
		c.cxlWr += s.CXL(dev, pmu.CXLDevCASWr)
	}

	p.AnalyzeQueuesInto(s, c.k, &c.qr)
	if !p.MeasuredQueuesInto(s, &c.meas) {
		return
	}
	bestEst, bestMeas := -1.0, -1.0
	var argEst, argMeas core.Component
	any := false
	for _, comp := range accuracyComps {
		est, meas := c.estimate(comp), c.meas[comp]
		if est > bestEst {
			bestEst, argEst = est, comp
		}
		if meas > bestMeas {
			bestMeas, argMeas = meas, comp
		}
		if meas > 0 {
			any = true
			c.residualSum += math.Abs(est-meas) / meas
			c.residualN++
		}
	}
	if any {
		c.culpritEpochs++
		if argEst == argMeas {
			c.agree++
		}
	}
}

// digest finishes the output digest with the rendered report text.
func (c *checker) digest(reportText string) string {
	c.h.Write([]byte(reportText))
	return hex.EncodeToString(c.h.Sum(nil))[:32]
}

// profileOut is one profiling run's result.
type profileOut struct {
	wall, cpu time.Duration // timed intervals only: Step calls and the report phase
	epochMs   []float64
	mallocs   uint64 // heap objects allocated by the traced core-layer calls
	report    string
}

// renderReports is pathfinder's report phase over the last epoch: path map,
// stall and queue tables per app, then the materializer's locality windows.
func renderReports(t *tracer, parent int, runs []core.AppRun, mat *core.Materializer,
	pms []*core.PathMap, bds []*core.StallBreakdown, qrs []*core.QueueReport) string {
	var b strings.Builder
	for i, run := range runs {
		fmt.Fprintf(&b, "==== %s (core %d) ====\n", run.Label, run.Core)
		s := t.begin("report.render", parent)
		b.WriteString(report.PathMapTable(pms[i]).String())
		b.WriteString(report.StallTable(bds[i]).String())
		b.WriteString(report.QueueTable(qrs[i]).String())
		t.end(s)
		s = t.begin("tsdb.query", parent)
		ws := mat.LocalityWindows(run.Label, core.LvlCXL, 0.4)
		t.end(s)
		fmt.Fprintf(&b, "PFMaterializer: %d stable CXL-traffic windows\n", len(ws))
		for j, w := range ws {
			fmt.Fprintf(&b, "  window %d: epochs [%d,%d), mean CXL hits %.0f\n",
				j, w.Segment.Start, w.Segment.End, w.MeanHits)
		}
	}
	return b.String()
}

// runProfile drives the untraced epoch loop through Profiler.Step, timing
// each Step and the report phase.
func (r *rig) runProfile(c *checker) (profileOut, error) {
	var out profileOut
	var sw stopwatch
	var last *core.EpochResult
	for e := 0; e < r.w.epochs; e++ {
		sw.start()
		res, err := r.prof.Step()
		d := sw.stop()
		if err != nil {
			return out, fmt.Errorf("epoch %d: %w", e, err)
		}
		out.epochMs = append(out.epochMs, float64(d.Nanoseconds())/1e6)
		c.epoch(res.Snapshot)
		res.Snapshot.Release()
		last = res
	}
	n := len(r.runs)
	pms, bds, qrs := make([]*core.PathMap, n), make([]*core.StallBreakdown, n), make([]*core.QueueReport, n)
	for i, run := range r.runs {
		pms[i], bds[i], qrs[i] = last.PathMaps[run.Label], last.Stalls[run.Label], last.Queues[run.Label]
	}
	sw.start()
	out.report = renderReports(nil, -1, r.runs, r.prof.Materializer(), pms, bds, qrs)
	sw.stop()
	out.wall, out.cpu = sw.wall, sw.cpu
	return out, nil
}

// runTraced drives the same epoch loop through the calls Profiler.Step
// makes — Machine.Run, Capturer.Capture, the three Plan analyses and the
// materializer's Record* — with a span around each.  Heap objects
// allocated by the core-layer calls are counted per epoch; the two
// ReadMemStats calls that count them fall in the epoch span's self time.
func (r *rig) runTraced(c *checker, t *tracer, parent int) (profileOut, error) {
	var out profileOut
	var sw stopwatch
	var ms0, ms1 runtime.MemStats
	n := len(r.runs)
	pms, bds, qrs := make([]*core.PathMap, n), make([]*core.StallBreakdown, n), make([]*core.QueueReport, n)
	for e := 0; e < r.w.epochs; e++ {
		sw.start()
		ep := t.begin("epoch", parent)
		r.fl.SetEpoch(uint64(e + 1))
		s := t.begin("sim.run", ep)
		r.m.Run(r.w.epochCycles)
		t.end(s)

		runtime.ReadMemStats(&ms0)
		s = t.begin("core.capture", ep)
		snap := r.cap.Capture()
		t.end(s)
		for i, plan := range r.plans {
			pm, bd, qr := &core.PathMap{}, &core.StallBreakdown{}, &core.QueueReport{}
			s = t.begin("core.build", ep)
			plan.BuildPathMapInto(snap, pm)
			t.end(s)
			s = t.begin("core.estimate", ep)
			plan.EstimateStallsInto(snap, r.k, bd)
			t.end(s)
			s = t.begin("core.analyze", ep)
			plan.AnalyzeQueuesInto(snap, r.k, qr)
			t.end(s)
			s = t.begin("core.materialize", ep)
			label := r.runs[i].Label
			err := r.mat.RecordPathMap(label, snap, pm)
			if err == nil {
				err = r.mat.RecordStalls(label, snap, bd)
			}
			if err == nil {
				err = r.mat.RecordQueues(label, snap, qr)
			}
			t.end(s)
			if err != nil {
				return out, fmt.Errorf("epoch %d: %w", e, err)
			}
			pms[i], bds[i], qrs[i] = pm, bd, qr
		}
		runtime.ReadMemStats(&ms1)
		out.mallocs += ms1.Mallocs - ms0.Mallocs
		t.end(ep)
		d := sw.stop()
		out.epochMs = append(out.epochMs, float64(d.Nanoseconds())/1e6)
		c.epoch(snap)
		snap.Release()
	}
	sw.start()
	s := t.begin("report", parent)
	out.report = renderReports(t, s, r.runs, r.mat, pms, bds, qrs)
	t.end(s)
	sw.stop()
	out.wall, out.cpu = sw.wall, sw.cpu
	return out, nil
}
