package core

import (
	"bytes"
	"testing"

	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Run-window equivalence: one Machine.Run call covers a window of simulated
// time, and the engine clips inline run-ahead at the window's end.  Where
// the windows fall must be invisible to every observable: each golden
// scenario cut into many short windows that do not divide its epoch must
// reproduce the scenario's pinned digest hash, exactly as one Run per epoch
// does (fastpath_test.go).

// windowSpans are the window lengths every scenario is cut into: a prime
// short enough that most windows end inside a run of inline steps, and a
// longer one that still divides no epoch length.
var windowSpans = []sim.Cycles{997, 65_537}

// runWindowed executes a golden scenario with each epoch of cyc cycles
// driven as consecutive Run windows of at most span cycles, capturing a
// digest at every epoch boundary.
func runWindowed(t *testing.T, runAhead bool, span sim.Cycles, epochs int, cyc sim.Cycles, setup fastpathScenario) fastpathRun {
	t.Helper()
	m, localReg, cxlReg := testRig(t)
	m.SetRunAhead(runAhead)
	cleanup := setup(t, m, region(localReg), region(cxlReg))
	cap := NewCapturer(m)
	var out fastpathRun
	for e := 0; e < epochs; e++ {
		for left := cyc; left > 0; {
			d := min(span, left)
			m.Run(d)
			left -= d
		}
		out.digests = append(out.digests, EncodeDigest(cap.Capture()))
	}
	if cleanup != nil {
		cleanup()
	}
	out.now = m.Now()
	out.inline = m.InlineSteps()
	return out
}

func TestWindowGoldenScenarios(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := sim.Cycles(sc.epochs) * sc.cyc
			for _, span := range windowSpans {
				got := runWindowed(t, true, span, sc.epochs, sc.cyc, sc.setup)
				if got.now != want {
					t.Fatalf("span=%d: final clock %d, want %d", span, got.now, want)
				}
				if got.inline == 0 {
					t.Fatalf("span=%d: windowed run executed zero inline steps", span)
				}
				if h := got.pinHash(); h != sc.pin {
					t.Errorf("span=%d: digest hash %s, pinned %s", span, h, sc.pin)
				}
			}
		})
	}
}

// windowAttached runs the flight scenario once per Run-window span
// (0 meaning one Run per epoch), attaching whatever attach installs, and
// requires every span to reproduce attachedPin and the same attachment
// statistics as the whole-epoch run.
func windowAttached[S comparable](t *testing.T, attach func(m *sim.Machine) func() S) S {
	t.Helper()
	var base S
	for i, span := range append([]sim.Cycles{0}, windowSpans...) {
		var st S
		setup := func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			done := attach(m)
			m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 5))
			m.Attach(1, workload.NewStream(local, 2, 0.2, 6))
			return func() { st = done() }
		}
		var got fastpathRun
		if span == 0 {
			got = runFastpath(t, true, 2, 1_000_000, setup)
		} else {
			got = runWindowed(t, true, span, 2, 1_000_000, setup)
		}
		if h := got.pinHash(); h != attachedPin {
			t.Errorf("span=%d: digest hash %s, pinned %s", span, h, attachedPin)
		}
		if i == 0 {
			base = st
		} else if st != base {
			t.Fatalf("span=%d: attachment stats %+v, whole-epoch run %+v", span, st, base)
		}
	}
	return base
}

// TestWindowGoldenFlightEnabled: the flight recorder files every completion,
// including those of inline steps, so its record count and promotion
// decisions must not depend on where the Run windows end.
func TestWindowGoldenFlightEnabled(t *testing.T) {
	type stats struct{ records, promoted uint64 }
	st := windowAttached(t, func(m *sim.Machine) func() stats {
		fl := obs.NewFlight(m.Cores(), 2048, 128)
		fl.Enable()
		m.SetFlight(fl)
		return func() stats { return stats{fl.RecordsTotal(), fl.Promoted()} }
	})
	if st.records == 0 {
		t.Fatal("flight recorder filed no records")
	}
	if st.promoted == 0 {
		t.Fatal("no promotions over a mixed local/CXL run; threshold pipeline dead")
	}
}

// TestWindowStepEquivalence drives the same two-core workload through one
// dispatch-only Run and, with run-ahead on, through windows whose length
// does not divide the total, so the final window is a short remainder.  The
// digests must match byte for byte.
func TestWindowStepEquivalence(t *testing.T) {
	const total = 1_200_000
	run := func(runAhead bool, span sim.Cycles) Digest {
		m, localReg, cxlReg := testRig(t)
		m.SetRunAhead(runAhead)
		m.Attach(0, workload.NewStream(region(localReg), 2, 0.2, 9))
		m.Attach(1, workload.NewStream(region(cxlReg), 2, 0.1, 10))
		cap := NewCapturer(m)
		for left := sim.Cycles(total); left > 0; {
			d := min(span, left)
			m.Run(d)
			left -= d
		}
		if m.Now() != total {
			t.Fatalf("span=%d: final clock %d, want %d", span, m.Now(), total)
		}
		return EncodeDigest(cap.Capture())
	}
	whole := run(false, total)
	for _, span := range windowSpans {
		got := run(true, span)
		if !bytes.Equal(whole, got) {
			t.Errorf("span=%d: digest differs between one dispatch-only Run and windowed run-ahead Runs", span)
			diffDigests(t, got, whole)
		}
	}
}
