package core

import (
	"bytes"
	"testing"
)

// Checkpoint restore-equivalence golden suite: for every fastpath golden
// scenario — including the fault-plan, viral-escalation, and surprise-
// removal cases — a machine restored from a warm checkpoint must produce
// byte-identical per-epoch snapshot digests to a scratch machine that ran
// the same span, with the run-ahead fast path on and off.  The Capturer is
// delta-based, so both machines get their capturer attached at the warm
// barrier and only suffix epochs are compared.

// runCheckpointGolden runs scenario `name` three ways — scratch, source
// continued past its own checkpoint, and a restored fork with the run-ahead
// fast path set to runAhead — and requires identical digests from all three.
func runCheckpointGolden(t *testing.T, name string, runAhead bool) {
	_, epochs, cyc, setup := goldenScenario(t, name)
	warm := cyc // first epoch's worth of cycles is the shared prefix

	scratchDigests := func() []Digest {
		m, localReg, cxlReg := testRig(t)
		cleanup := setup(t, m, region(localReg), region(cxlReg))
		m.Run(warm)
		cap := NewCapturer(m)
		var out []Digest
		for e := 0; e < epochs; e++ {
			m.Run(cyc)
			out = append(out, EncodeDigest(cap.Capture()))
		}
		if cleanup != nil {
			cleanup()
		}
		return out
	}
	want := scratchDigests()

	src, localReg, cxlReg := testRig(t)
	cleanup := setup(t, src, region(localReg), region(cxlReg))
	src.Run(warm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}

	// The source continues unperturbed.
	srcCap := NewCapturer(src)
	for e := 0; e < epochs; e++ {
		src.Run(cyc)
		got := EncodeDigest(srcCap.Capture())
		if !bytes.Equal(want[e], got) {
			t.Errorf("scenario %s: source epoch %d digest diverged after Checkpoint", name, e)
			diffDigests(t, want[e], got)
		}
	}
	if cleanup != nil {
		cleanup()
	}

	// The fork runs the identical suffix in the requested engine mode.
	fork := cp.Restore()
	fork.SetRunAhead(runAhead)
	forkCap := NewCapturer(fork)
	for e := 0; e < epochs; e++ {
		fork.Run(cyc)
		got := EncodeDigest(forkCap.Capture())
		if !bytes.Equal(want[e], got) {
			t.Errorf("scenario %s runAhead=%v: restored epoch %d digest differs from scratch", name, runAhead, e)
			diffDigests(t, want[e], got)
		}
	}
}

func checkpointGoldenBothModes(t *testing.T, name string) {
	t.Helper()
	for _, runAhead := range []bool{false, true} {
		runCheckpointGolden(t, name, runAhead)
	}
}

func TestCheckpointGoldenSingleCoreLocal(t *testing.T) {
	checkpointGoldenBothModes(t, "SingleCoreLocal")
}

func TestCheckpointGoldenSingleCoreCXL(t *testing.T) {
	checkpointGoldenBothModes(t, "SingleCoreCXL")
}

func TestCheckpointGoldenMultiCoreMixed(t *testing.T) {
	checkpointGoldenBothModes(t, "MultiCoreMixed")
}

func TestCheckpointGoldenFaultPlan(t *testing.T) {
	checkpointGoldenBothModes(t, "FaultPlan")
}

func TestCheckpointGoldenSurpriseRemoval(t *testing.T) {
	checkpointGoldenBothModes(t, "SurpriseRemoval")
}
