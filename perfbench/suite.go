package main

import (
	"strconv"
	"strings"
	"time"

	"pathfinder/internal/experiments"
	"pathfinder/internal/obs"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
)

// suiteOut is one run of the fig2/3/4 characterisation suite.
type suiteOut struct {
	wall, cpu time.Duration
	tables    string
	tasks     uint64  // experiment runs the pool completed
	busy      float64 // summed worker busy seconds
}

// runnerCounters reads the experiment pool's task count and summed worker
// busy time from obs.Default.
func runnerCounters() (tasks uint64, busyNs uint64) {
	tasks = obs.Default.Counter("pf_runner_tasks_total", "experiment runs completed by the pool").Value()
	for w := 0; w < experiments.Parallelism(); w++ {
		busyNs += obs.Default.Counter("pf_runner_busy_ns{worker=\""+strconv.Itoa(w)+"\"}",
			"wall-clock nanoseconds each pool worker spent running experiments").Value()
	}
	return tasks, busyNs
}

// runSuite runs RunFig2, RunFig3 and RunFig4 in quick mode on SPR, as
// `pfbench -quick` runs them for -exp fig2, fig3 and fig4, and renders
// their tables.
func runSuite(t *tracer, parent int) suiteOut {
	var out suiteOut
	var sw stopwatch
	var b strings.Builder
	cfg := sim.SPR()
	tasks0, busy0 := runnerCounters()

	render := func(tables ...func() *report.Table) {
		s := t.begin("report.render", parent)
		for _, table := range tables {
			b.WriteString(table().String())
			b.WriteString("\n")
		}
		t.end(s)
	}

	sw.start()
	s := t.begin("experiments.fig2", parent)
	f2 := experiments.RunFig2(cfg, true)
	t.end(s)
	render(f2.Main.Table, f2.WrOnly.Table)
	s = t.begin("experiments.fig3", parent)
	f3 := experiments.RunFig3(cfg, true)
	t.end(s)
	render(f3.Table)
	s = t.begin("experiments.fig4", parent)
	f4 := experiments.RunFig4(cfg, true)
	t.end(s)
	render(f4.Table)
	sw.stop()

	tasks1, busy1 := runnerCounters()
	out.wall, out.cpu = sw.wall, sw.cpu
	out.tables = b.String()
	out.tasks = tasks1 - tasks0
	out.busy = float64(busy1-busy0) / 1e9
	return out
}
