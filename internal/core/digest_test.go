package core

import (
	"testing"
	"testing/quick"

	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

func TestDigestRoundTrip(t *testing.T) {
	m, local, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0.2, 1))
	m.Attach(1, workload.NewStream(region(cxl), 2, 0.2, 2))
	m.Run(1_000_000)
	s := cap.Capture()

	d := EncodeDigest(s)
	got, err := DecodeDigest(d, pmu.Default.Len())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.Start != s.Start || got.End != s.End {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	if got.NumCores() != s.NumCores() || got.NumCHA() != s.NumCHA() ||
		got.NumCXL() != s.NumCXL() {
		t.Fatal("bank census mismatch")
	}
	for _, name := range s.idx.names {
		if _, ok := got.idx.byName[name]; !ok {
			t.Fatalf("bank %s missing after decode", name)
		}
		want, have := s.bankDelta(name), got.bankDelta(name)
		for e := range want {
			if want[e] != have[e] {
				t.Fatalf("%s[%s] = %d, want %d", name, pmu.Default.Name(pmu.Event(e)), have[e], want[e])
			}
		}
	}
	// The analyses must produce identical results on the decoded snapshot.
	// The decoded snapshot carries its own layout, so it needs its own plan.
	var pm1, pm2 PathMap
	NewPlan(s.Index(), []int{1}, 0).BuildPathMapInto(s, &pm1)
	NewPlan(got.Index(), []int{1}, 0).BuildPathMapInto(got, &pm2)
	if pm1.Load != pm2.Load {
		t.Fatal("path maps differ after digest round trip")
	}
}

func TestDigestCompression(t *testing.T) {
	m, _, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxl), 2, 0, 1))
	m.Run(500_000)
	s := cap.Capture()

	raw := 8 * len(s.arena)
	d := EncodeDigest(s)
	if len(d) >= raw/4 {
		t.Fatalf("digest %d bytes vs raw %d: expected >4x compression from sparsity", len(d), raw)
	}
}

func TestDigestErrors(t *testing.T) {
	m, local, _ := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0, 1))
	m.Run(200_000)
	d := EncodeDigest(cap.Capture())

	if _, err := DecodeDigest(d[:3], pmu.Default.Len()); err == nil {
		t.Fatal("truncated magic accepted")
	}
	bad := append(Digest{}, d...)
	bad[0] = 'X'
	if _, err := DecodeDigest(bad, pmu.Default.Len()); err == nil {
		t.Fatal("bad magic accepted")
	}
	ver := append(Digest{}, d...)
	ver[4] = 99
	if _, err := DecodeDigest(ver, pmu.Default.Len()); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := DecodeDigest(d[:len(d)/2], pmu.Default.Len()); err == nil {
		t.Fatal("truncated body accepted")
	}
	// An index overflowing a smaller catalog is rejected.
	if _, err := DecodeDigest(d, 3); err == nil {
		t.Fatal("oversized event index accepted")
	}
}

// Property: synthetic sparse snapshots round-trip exactly.
func TestDigestProperty(t *testing.T) {
	const nEvents = 64
	f := func(vals []uint64, seq uint16) bool {
		if len(vals) > nEvents {
			vals = vals[:nEvents]
		}
		idx := NewBankIndex([]string{"core0", "cxl0"}, nEvents)
		s := &Snapshot{Seq: int(seq), Start: 10, End: 20,
			idx: idx, arena: make([]uint64, idx.ArenaLen())}
		copy(s.bankDelta("core0"), vals)
		copy(s.bankDelta("cxl0"), vals)
		got, err := DecodeDigest(EncodeDigest(s), nEvents)
		if err != nil {
			return false
		}
		for _, name := range []string{"core0", "cxl0"} {
			want, have := s.bankDelta(name), got.bankDelta(name)
			for i := range want {
				if want[i] != have[i] {
					return false
				}
			}
		}
		return got.Seq == s.Seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
