// Command perfbench is the repository's end-to-end benchmark.  It runs one
// workload — a pathfinder-style profiling loop, or the fig2/3/4
// characterisation suite — for a fixed measuring time, checks the output
// digest, and prints every metric by name and unit.  The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	go run . --workload stream-4c --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs.  --trace 1
// makes one untraced and one traced run, reports the per-layer metrics
// from the traced run's spans, and writes the spans as a Chrome trace.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"pathfinder/internal/experiments"
)

// setup_s is the median of at least minSetups set-ups.  Runs of the
// workload provide some; extra set-ups fill up to wantSetups while they
// cost less than extraSetupBudget, so cheap set-ups get more samples.
const (
	minSetups        = 7
	wantSetups       = 25
	extraSetupBudget = 2 * time.Second
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one benchmark run.
type options struct {
	w        workloadSpec
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceOut string // Chrome trace path of the traced run ("" = not written)
	pin      string // expected output digest ("" = runs need only agree)
}

// environment is recorded beside every result, so results from different
// configurations are never compared silently.  Nothing here is pinned.
type environment struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	HeldOutSeed  uint64  `json:"held_out_seed"`
	Pinned       bool    `json:"digest_pinned"`
	GoVersion    string  `json:"go"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	GOGC         string  `json:"gogc"`
	GOMEMLIMIT   string  `json:"gomemlimit"`
	MachineLanes []int   `json:"machine_lanes"`
	LaneWorkers  []int   `json:"lane_workers"`
	Parallelism  int     `json:"experiments_parallelism"`
	LaneBudget   int     `json:"experiments_lane_budget"`
	GCCycles     uint32  `json:"gc_cycles"`
	Runs         int     `json:"runs"`
	Setups       int     `json:"setups"`
	Epochs       int     `json:"epochs"`
	Digest       string  `json:"digest"`
	TraceFile    string  `json:"trace_file,omitempty"`
	TraceSpans   int     `json:"trace_spans,omitempty"`
	MeasuredSecs float64 `json:"measured_s"`
}

// repOut is one complete run of a workload on a fresh rig.
type repOut struct {
	setup     time.Duration
	wall, cpu time.Duration // timed phase: epoch loop, reports, suite
	allocMB   float64       // heap bytes allocated in the timed phase
	lanes     int           // the machine's lane mode, and lane workers it spawned
	workers   int
	digest    string
	check     *checker
	rig       *rig
	prof      profileOut
	suite     suiteOut
}

// runRep builds a fresh rig and runs the workload once.  A non-nil tracer
// selects the traced loop.  The heap is collected first, so a run never
// pays for its predecessor's garbage.
func runRep(w workloadSpec, seed uint64, accuracy bool, t *tracer) (repOut, error) {
	var out repOut
	runtime.GC()
	root := t.begin("run", -1)

	s := t.begin("setup", root)
	t0 := time.Now()
	rg, err := newRig(w, seed, t, s)
	out.setup = time.Since(t0)
	t.end(s)
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	out.rig = rg
	out.lanes = rg.m.Lanes()
	out.check = newChecker(rg.k, accuracy)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if t == nil {
		out.prof, err = rg.runProfile(out.check)
	} else {
		out.prof, err = rg.runTraced(out.check, t, root)
	}
	if err != nil {
		return out, err
	}
	out.wall, out.cpu = out.prof.wall, out.prof.cpu
	text := out.prof.report
	if w.suite {
		out.suite = runSuite(t, root)
		out.wall += out.suite.wall
		out.cpu += out.suite.cpu
		text += out.suite.tables
	}
	runtime.ReadMemStats(&ms1)
	t.end(root)

	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	out.workers = len(rg.m.WindowStats().LaneBusyNs)
	out.digest = out.check.digest(text)
	return out, nil
}

// timeSetup builds and discards one rig, returning the set-up time.
func timeSetup(w workloadSpec, seed uint64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	_, err := newRig(w, seed, nil, -1)
	return time.Since(t0), err
}

// countFailed returns how many digests differ from pin, or from the first
// digest when no pin is given.
func countFailed(digests []string, pin string) int {
	ref := pin
	if ref == "" {
		ref = digests[0]
	}
	failed := 0
	for _, d := range digests {
		if d != ref {
			failed++
		}
	}
	return failed
}

// run executes the benchmark and returns its result and environment.
func run(o options) (*result, *environment, error) {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	env := &environment{
		Workload:    o.w.name,
		Seed:        o.seed,
		HeldOutSeed: heldOutSeed,
		Pinned:      o.pin != "",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GOGC:        os.Getenv("GOGC"),
		GOMEMLIMIT:  os.Getenv("GOMEMLIMIT"),
		Parallelism: experiments.Parallelism(),
		LaneBudget:  experiments.LaneBudget(),
	}
	var reps []repOut
	var metrics map[string]metric
	var err error
	if o.traced {
		metrics, reps, err = runTraceMode(o, env)
	} else {
		metrics, reps, err = runTimed(o, env)
	}
	if err != nil {
		return nil, nil, err
	}
	digests := make([]string, len(reps))
	epochs := 0
	for i, r := range reps {
		digests[i] = r.digest
		epochs += len(r.prof.epochMs)
		env.MachineLanes = append(env.MachineLanes, r.lanes)
		env.LaneWorkers = append(env.LaneWorkers, r.workers)
	}
	res := &result{Attempted: len(reps), Failed: countFailed(digests, o.pin), Metrics: metrics}
	res.Correct = res.Failed == 0
	if !o.traced {
		res.Metrics["ok_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	}
	runtime.ReadMemStats(&gc1)
	env.GCCycles = gc1.NumGC - gc0.NumGC
	env.Runs = len(reps)
	env.Epochs = epochs
	env.Digest = digests[0]
	env.MeasuredSecs = time.Since(start).Seconds()
	return res, env, nil
}

// runTimed runs the workload on fresh rigs as many times as fill the
// measuring time, then reports medians over the runs and percentiles over
// all their epochs.
func runTimed(o options, env *environment) (map[string]metric, []repOut, error) {
	var reps []repOut
	var setups, walls, cpus, allocs, epochMs []float64
	for i := o.w.runs(o.seconds); i > 0; i-- {
		r, err := runRep(o.w, o.seed, len(reps) == 0, nil)
		if err != nil {
			return nil, nil, err
		}
		r.rig = nil // release the machine: runs must not accumulate memory
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		allocs = append(allocs, r.allocMB)
		epochMs = append(epochMs, r.prof.epochMs...)
	}
	extraStart := time.Now()
	for len(setups) < minSetups ||
		(len(setups) < wantSetups && time.Since(extraStart) < extraSetupBudget) {
		d, err := timeSetup(o.w, o.seed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	env.Setups = len(setups)
	p50, err := percentile(epochMs, 0.5)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(epochMs, 0.9)
	if err != nil {
		return nil, nil, err
	}
	c := reps[0].check
	residual, agree := 0.0, 0.0
	if c.residualN > 0 {
		residual = c.residualSum / float64(c.residualN)
	}
	if c.culpritEpochs > 0 {
		agree = float64(c.agree) / float64(c.culpritEpochs)
	}
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"wall_s":            {median(walls), "s"},
		"cpu_s":             {median(cpus), "s"},
		"epoch_ms_p50":      {p50, "ms"},
		"epoch_ms_p90":      {p90, "ms"},
		"peak_rss_mb":       {peakRSSMB(), "MiB"},
		"alloc_mb":          {median(allocs), "MiB"},
		"analyzer_residual": {residual, "ratio"},
		"culprit_agree":     {agree, "ratio"},
	}, reps, nil
}

// runTraceMode makes one untraced and one traced run and reports the
// per-layer metrics: self times from the traced run's spans, counters read
// after it, and the tracing overhead as the traced run's timed-phase wall
// time minus the untraced run's.
func runTraceMode(o options, env *environment) (map[string]metric, []repOut, error) {
	u, err := runRep(o.w, o.seed, true, nil)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer()
	tr, err := runRep(o.w, o.seed, false, t)
	if err != nil {
		return nil, nil, err
	}
	env.TraceSpans = len(t.spans)
	if o.traceOut != "" {
		if err := t.writeChrome(o.traceOut); err != nil {
			return nil, nil, err
		}
		env.TraceFile = o.traceOut
	}

	self := t.selfSeconds()
	c, m := u.check, tr.rig.m
	ws := m.WindowStats()
	var laneBusy float64
	for _, ns := range ws.LaneBusyNs {
		laneBusy += float64(ns) / 1e9
	}
	hits, misses := tr.rig.cap.PoolStats()
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	nsPerOp := 0.0
	if c.ops > 0 {
		nsPerOp = self["sim.run"] * 1e9 / c.ops
	}
	poolUtil := 0.0
	if tr.suite.wall > 0 {
		poolUtil = tr.suite.busy / (tr.suite.wall.Seconds() * float64(experiments.Parallelism()))
	}
	return map[string]metric{
		"sim.run_s":             {self["sim.run"], "s"},
		"sim.ns_per_op":         {nsPerOp, "ns"},
		"sim.lane_busy_s":       {laneBusy, "s"},
		"sim.windows":           {float64(ws.Windows), "count"},
		"sim.barrier_merges":    {float64(ws.BarrierMerges), "count"},
		"sim.inline_steps":      {float64(m.InlineSteps()), "count"},
		"sim.dispatched_events": {float64(m.DispatchedEvents()), "count"},
		"sim.cycles":            {c.cycles, "cycles"},
		"sim.ops":               {c.ops, "count"},
		"sim.l1d_miss":          {c.l1dMiss, "count"},
		"sim.l2_miss":           {c.l2Miss, "count"},
		"sim.llc_miss":          {c.llcMiss, "count"},
		"sim.cxl_rd":            {c.cxlRd, "count"},
		"sim.cxl_wr":            {c.cxlWr, "count"},

		"obs.flight_records":  {float64(tr.rig.fl.RecordsTotal()), "count"},
		"obs.flight_promoted": {float64(tr.rig.fl.Promoted()), "count"},

		"core.capture_s":              {self["core.capture"], "s"},
		"core.capture_pool_hit_ratio": {hitRatio, "ratio"},
		"core.build_s":                {self["core.build"], "s"},
		"core.estimate_s":             {self["core.estimate"], "s"},
		"core.analyze_s":              {self["core.analyze"], "s"},
		"core.materialize_s":          {self["core.materialize"], "s"},
		"core.allocs_per_epoch":       {float64(tr.prof.mallocs) / float64(len(tr.prof.epochMs)), "count"},

		"tsdb.query_s":    {self["tsdb.query"], "s"},
		"report.render_s": {self["report.render"], "s"},

		"experiments.fig2_s":    {self["experiments.fig2"], "s"},
		"experiments.fig3_s":    {self["experiments.fig3"], "s"},
		"experiments.fig4_s":    {self["experiments.fig4"], "s"},
		"experiments.tasks":     {float64(tr.suite.tasks), "count"},
		"experiments.busy_s":    {tr.suite.busy, "s"},
		"experiments.pool_util": {poolUtil, "ratio"},

		"setup.machine_s":  {self["setup.machine"], "s"},
		"setup.workload_s": {self["setup.workload"], "s"},
		"setup.profiler_s": {self["setup.profiler"], "s"},

		"trace.overhead_s": {tr.wall.Seconds() - u.wall.Seconds(), "s"},
	}, []repOut{u, tr}, nil
}

func main() {
	name := flag.String("workload", "stream-4c", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "seed every generator seed derives from")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "",
		"Chrome trace path for --trace 1 (default .bench_build/perfbench-<workload>.trace.json)")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, not %d", *seconds))
	}
	o := options{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if o.traced {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			// One file per workload: profile-32c's trace is tens of MB,
			// so runs at other seeds overwrite it rather than pile up.
			o.traceOut = fmt.Sprintf(".bench_build/perfbench-%s.trace.json", w.name)
		}
	}
	if *seed == defaultSeed {
		o.pin = pinned[w.name]
	}

	// Parallelism as pfbench sets it by default (-parallel = NumCPU).
	experiments.SetParallelism(runtime.NumCPU())
	res, env, err := run(o)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("runs %d, epochs %d, set-ups %d, digest %s (pinned: %v)\n",
		env.Runs, env.Epochs, env.Setups, env.Digest, env.Pinned)
	envJSON, err := json.Marshal(env)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("env %s\n", envJSON)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
