package sim

import (
	"reflect"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// ckptRig builds a machine exercising all three memory paths with forkable
// generators: a store-mixed stream on local DRAM, GUPS on the CXL device,
// and a Zipf working set on the remote socket.
func ckptRig(t *testing.T) *Machine {
	t.Helper()
	as := testSpace(t)
	local, err := as.Alloc(4<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := as.Alloc(4<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := as.Alloc(8<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, workload.NewStream(workload.Region{Base: local.Base, Size: local.Size}, 2, 0.25, 1))
	m.Attach(1, workload.NewGUPS(workload.Region{Base: cxl.Base, Size: cxl.Size}, 1, 0.1, 0.5, 2))
	m.Attach(2, workload.NewZipf(workload.Region{Base: remote.Base, Size: remote.Size}, 0.9, 0.8, 4, 1, 3))
	m.Attach(3, workload.NewMix(
		workload.NewStream(workload.Region{Base: cxl.Base, Size: cxl.Size / 2}, 0, 0, 4),
		workload.NewPointerChase(workload.Region{Base: local.Base, Size: local.Size}, 2, 5),
		0.7))
	return m
}

// bankValues flattens every PMU counter of the machine after a Sync.
func bankValues(m *Machine) []uint64 {
	m.Sync()
	var out []uint64
	for _, b := range m.Banks() {
		out = append(out, b.Values()...)
	}
	return out
}

func diffBanks(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: bank shapes differ (%d vs %d values)", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: counter value %d differs: want %d, got %d", label, i, want[i], got[i])
		}
	}
}

const (
	ckptWarm   = Cycles(2_000_000)
	ckptSuffix = Cycles(1_500_000)
)

// TestCheckpointRestoreEquivalence is the core restore-equivalence proof at
// the sim layer: a machine restored from a mid-run checkpoint produces
// byte-identical PMU counters to (a) a scratch machine that ran the whole
// span and (b) the source machine continuing past the checkpoint.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	scratch := ckptRig(t)
	scratch.Run(ckptWarm + ckptSuffix)
	want := bankValues(scratch)

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle() != ckptWarm {
		t.Fatalf("checkpoint cycle = %d, want %d", cp.Cycle(), ckptWarm)
	}
	if cp.Bytes() <= 0 {
		t.Fatalf("checkpoint reports %d bytes", cp.Bytes())
	}

	// The source keeps running unperturbed.
	src.Run(ckptSuffix)
	diffBanks(t, "source continued", want, bankValues(src))

	// A fresh restore runs the identical suffix.
	fork := cp.Restore()
	if fork.Now() != ckptWarm {
		t.Fatalf("restored machine at cycle %d, want %d", fork.Now(), ckptWarm)
	}
	fork.Run(ckptSuffix)
	diffBanks(t, "restored", want, bankValues(fork))

	// The checkpoint is reusable: a second fork is just as good.
	fork2 := cp.Restore()
	fork2.Run(ckptSuffix)
	diffBanks(t, "second restore", want, bankValues(fork2))
}

// TestCheckpointRestoreInto proves the buffer-reusing path: restoring over
// a machine that already ran an arbitrary suffix repositions it exactly.
func TestCheckpointRestoreInto(t *testing.T) {
	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src.Run(ckptSuffix)
	want := bankValues(src)

	m := cp.Restore()
	m.Run(ckptSuffix / 3) // dirty the machine with a partial suffix
	m.Sync()
	if err := cp.RestoreInto(m); err != nil {
		t.Fatal(err)
	}
	if m.Now() != ckptWarm {
		t.Fatalf("RestoreInto left machine at cycle %d, want %d", m.Now(), ckptWarm)
	}
	m.Run(ckptSuffix)
	diffBanks(t, "restore-into", want, bankValues(m))

	// And again, from a fully-run machine.
	if err := cp.RestoreInto(m); err != nil {
		t.Fatal(err)
	}
	m.Run(ckptSuffix)
	diffBanks(t, "restore-into twice", want, bankValues(m))
}

// TestCheckpointRestoreThenAttachFlight proves attach-after-restore: a
// flight recorder attached to a restored machine sees the same records as
// one attached to a fresh machine at the same cycle.
func TestCheckpointRestoreThenAttachFlight(t *testing.T) {
	attachRun := func(m *Machine) *obs.Flight {
		f := obs.NewFlight(m.Cores(), 1024, 64)
		f.Enable()
		m.SetFlight(f)
		m.Run(ckptSuffix)
		m.Sync()
		return f
	}

	fresh := ckptRig(t)
	fresh.Run(ckptWarm)
	fA := attachRun(fresh)
	if fA.RecordsTotal() == 0 {
		t.Fatal("flight recorder on fresh machine recorded nothing")
	}

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fB := attachRun(cp.Restore())
	if fA.RecordsTotal() != fB.RecordsTotal() {
		t.Fatalf("flight records: fresh %d, restored %d", fA.RecordsTotal(), fB.RecordsTotal())
	}
	for _, cl := range []int{obs.FlightLoad, obs.FlightStore} {
		if fA.Seen(cl) != fB.Seen(cl) {
			t.Fatalf("flight class %d: fresh %d, restored %d", cl, fA.Seen(cl), fB.Seen(cl))
		}
	}
	// Record for record, stage for stage: the waterfalls are identical.
	if !reflect.DeepEqual(fA.Records(), fB.Records()) {
		t.Fatal("restored-then-attached recorder filed different waterfalls than the fresh one")
	}
}

// TestCheckpointRejectsPendingClosure: Schedule/After closures cannot cross
// a checkpoint.
func TestCheckpointRejectsPendingClosure(t *testing.T) {
	m := ckptRig(t)
	m.Run(100_000)
	m.eng.Schedule(m.Now()+50_000, func(Cycles) {})
	if _, err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with a pending Schedule closure")
	}
	// Running past the closure makes the machine checkpointable again.
	m.Run(100_000)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after draining the closure: %v", err)
	}
}

// TestCheckpointRejectsNonForkableGenerator: attached generators must
// implement workload.Forkable.
func TestCheckpointRejectsNonForkableGenerator(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(1<<20, mem.Fixed(0))
	m := New(smallConfig(), as)
	m.Attach(0, &loopGen{ops: seqLoads(r.Base, 64, 64, false)})
	m.Run(100_000)
	if _, err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with a non-Forkable generator")
	}
}

// TestRestoreIntoRejectsConfigMismatch: forks only land on machines built
// from the same spec.
func TestRestoreIntoRejectsConfigMismatch(t *testing.T) {
	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := smallConfig()
	other.LFBEntries++
	m := New(other, testSpace(t))
	if err := cp.RestoreInto(m); err == nil {
		t.Fatal("RestoreInto accepted a machine with a different Config")
	}
}

// TestCheckpointIdleMachine: the degenerate image (cycle 0, nothing
// attached) round-trips too.
func TestCheckpointIdleMachine(t *testing.T) {
	m := New(smallConfig(), testSpace(t))
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork := cp.Restore()
	if fork.Now() != 0 || !fork.Idle() {
		t.Fatalf("restored idle machine: now=%d idle=%v", fork.Now(), fork.Idle())
	}
}

// FuzzCheckpointRoundTrip checkpoints at a fuzzed cycle mid-run — including
// inside hit-dominated runs, with a fault plan active, and with the
// run-ahead fast path on or forced off (negative mode) — restores, runs
// both to completion, and requires identical counters.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint32(1_000), int8(-1), false)
	f.Add(uint32(500_000), int8(1), true)
	f.Add(uint32(1_999_999), int8(2), false)
	f.Add(uint32(137), int8(0), true)
	f.Fuzz(func(t *testing.T, warmRaw uint32, mode int8, withFaults bool) {
		warm := Cycles(warmRaw%2_000_000) + 1
		suffix := Cycles(750_000)
		runAhead := mode >= 0
		build := func() *Machine {
			as := testSpace(t)
			local, _ := as.Alloc(2<<20, mem.Fixed(0))
			cxl, _ := as.Alloc(4<<20, mem.Fixed(2))
			cfg := smallConfig()
			m := New(cfg, as)
			if withFaults {
				m.SetFaultPlan(0, faultyPlan(0.05))
			}
			m.Attach(0, workload.NewStream(workload.Region{Base: local.Base, Size: local.Size}, 1, 0.2, 11))
			m.Attach(1, workload.NewGUPS(workload.Region{Base: cxl.Base, Size: cxl.Size}, 1, 0.1, 0.5, 12))
			return m
		}
		scratch := build()
		scratch.SetRunAhead(runAhead)
		scratch.Run(warm + suffix)
		want := bankValues(scratch)

		src := build()
		src.SetRunAhead(runAhead)
		src.Run(warm)
		cp, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		fork := cp.Restore()
		fork.SetRunAhead(runAhead)
		fork.Run(suffix)
		got := bankValues(fork)
		if len(want) != len(got) {
			t.Fatalf("bank shapes differ (%d vs %d)", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("counter %d diverged after round-trip at cycle %d: %d vs %d",
					i, warm, want[i], got[i])
			}
		}
	})
}
