package sim

import (
	"testing"

	"pathfinder/internal/cxl"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// Request-path waterfalls: every flight record's stage boundaries, rendered
// by obs.FlightRec.Spans, must describe the request's own path and nothing
// else.

// traceRun drives n dependent loads over the node at fix with the flight
// recorder attached and returns core 0's records.
func traceRun(t *testing.T, cfg Config, fix mem.NodeID, n int) []obs.FlightRec {
	t.Helper()
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(fix))
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, as)
	f := obs.NewFlight(cfg.Cores, 4096, 64)
	f.Enable()
	m.SetFlight(f)
	m.Attach(0, &opList{ops: seqLoads(r.Base, n, 64, true)})
	m.Run(50_000_000)
	m.Sync()
	return f.CoreRecords(0)
}

func stageSpans(r *obs.FlightRec) map[obs.Stage][]obs.Span {
	out := make(map[obs.Stage][]obs.Span)
	for _, sp := range r.Spans(nil) {
		out[sp.Stage] = append(out[sp.Stage], sp)
	}
	return out
}

var cxlStages = []obs.Stage{obs.StageM2PCIe, obs.StageCXLLink, obs.StageCXLDevQ,
	obs.StageCXLMedia, obs.StageCXLRet}

// checkWaterfall asserts the invariants every record holds: stage deltas
// monotonic, at most one span per stage, segments tiling the request
// envelope exactly, one device backend at most, and no device stages on a
// request served from the core's own caches.
func checkWaterfall(t *testing.T, r *obs.FlightRec) {
	t.Helper()
	prev := uint32(0)
	for _, at := range []uint32{r.L2Start, r.TOREnter, r.MemEnter, r.TxStart,
		r.DevArrive, r.MediaStart, r.Data} {
		if at == 0 {
			continue
		}
		if at < prev {
			t.Fatalf("record %+v: stage deltas not monotonic", *r)
		}
		prev = at
	}
	if uint64(prev) > r.Latency() {
		t.Fatalf("record %+v: a stage lies beyond completion", *r)
	}
	byStage := stageSpans(r)
	var tiled uint64
	for st, sps := range byStage {
		if len(sps) > 1 {
			t.Fatalf("record %+v has %d %s spans", *r, len(sps), st)
		}
		if st != obs.StageReq {
			tiled += sps[0].End - sps[0].Start
		}
	}
	if len(byStage) > 1 && tiled != r.Latency() {
		t.Fatalf("record %+v: segments cover %d of %d cycles", *r, tiled, r.Latency())
	}
	if len(byStage[obs.StageIMC]) > 0 && len(byStage[obs.StageCXLMedia]) > 0 {
		t.Fatalf("record %+v carries both IMC and CXL media spans", *r)
	}
	switch ServeLoc(r.Loc) {
	case SrvL1, SrvL2, SrvLFB:
		if r.MemEnter != 0 || r.TxStart != 0 || r.Data != 0 || r.Replay != 0 {
			t.Fatalf("cache-served record %+v carries device stages", *r)
		}
	}
}

func TestTracerCXLWaterfall(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 2, 64)
	if len(recs) != 64 {
		t.Fatalf("recorded %d requests, want 64", len(recs))
	}
	sawCXL := false
	for i := range recs {
		r := &recs[i]
		checkWaterfall(t, r)
		if ServeLoc(r.Loc) != SrvCXL {
			continue
		}
		sawCXL = true
		byStage := stageSpans(r)
		for _, st := range append([]obs.Stage{obs.StageReq, obs.StageL2, obs.StageCHA}, cxlStages...) {
			if len(byStage[st]) == 0 {
				t.Fatalf("record %d missing stage %s: %+v", r.Seq, st, r.Spans(nil))
			}
		}
		if len(byStage[obs.StageIMC]) != 0 {
			t.Fatalf("CXL-served record %d carries an IMC span", r.Seq)
		}
	}
	if !sawCXL {
		t.Fatal("no CXL-served records")
	}
}

func TestTracerLocalDRAMUsesIMCStage(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 0, 64)
	saw := false
	for i := range recs {
		r := &recs[i]
		checkWaterfall(t, r)
		if ServeLoc(r.Loc) != SrvLocalDRAM {
			continue
		}
		saw = true
		byStage := stageSpans(r)
		if len(byStage[obs.StageIMC]) == 0 {
			t.Fatalf("DRAM-served record %d has no IMC span: %+v", r.Seq, r.Spans(nil))
		}
		if r.TxStart != 0 || r.DevArrive != 0 || r.MediaStart != 0 {
			t.Fatalf("DRAM-served record %d carries CXL stage times: %+v", r.Seq, *r)
		}
		for _, st := range cxlStages {
			if len(byStage[st]) != 0 {
				t.Fatalf("DRAM-served record %d carries CXL stage %s", r.Seq, st)
			}
		}
	}
	if !saw {
		t.Fatal("no DRAM-served records")
	}
}

// Prefetch traffic issued while a demand request is in progress owns its
// own stage times, so the demand's record stays clean.
func TestTracerPrefetchDoesNotPolluteDemand(t *testing.T) {
	cfg := smallConfig() // default prefetch degrees: streams train hard
	recs := traceRun(t, cfg, 2, 256)
	if len(recs) != 256 {
		t.Fatalf("recorded %d requests, want 256 (one per demand load)", len(recs))
	}
	for i := range recs {
		checkWaterfall(t, &recs[i])
	}
}

// Under multi-core interleaved stepping with prefetchers training hard,
// other cores' and the core's own prefetch device traffic must never leak
// into a demand record's waterfall.
func TestTracerDemandSealMultiCore(t *testing.T) {
	m, local, cxlr := quadRig(t) // default prefetch degrees: streams train
	f := obs.NewFlight(m.Cores(), 1<<13, 64)
	f.Enable()
	m.SetFlight(f)
	m.Attach(0, workload.NewStream(cxlr, 2, 0.2, 1))
	m.Attach(1, workload.NewStream(cxlr, 2, 0.1, 2))
	m.Attach(2, workload.NewStream(local, 2, 0, 3))
	m.Attach(3, workload.NewStream(cxlr, 2, 0.3, 4))
	m.Run(300_000)
	m.Sync()

	n := 0
	for c := 0; c < m.Cores(); c++ {
		recs := f.CoreRecords(c)
		n += len(recs)
		for i := range recs {
			checkWaterfall(t, &recs[i])
		}
	}
	if n == 0 {
		t.Fatal("no records")
	}
}

// TestFlightStagesMonotonic runs a 2-core CXL machine healthy, under a
// CRC-burst plan and under viral containment: every record keeps its
// waterfall invariants, and replayed link transfers show up as a non-zero
// LRSM detour.
func TestFlightStagesMonotonic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   func(r mem.Region) *cxl.FaultPlan
		replay bool
	}{
		{"healthy", func(mem.Region) *cxl.FaultPlan { return nil }, false},
		{"crc-burst", func(mem.Region) *cxl.FaultPlan {
			return &cxl.FaultPlan{Seed: 3, CRCRate: [2]float64{0.01, 0.01},
				Bursts: []cxl.Burst{{Dir: cxl.DirS2M, Start: 0, Len: 100_000, Period: 200_000, Rate: 0.5}}}
		}, true},
		{"viral", func(r mem.Region) *cxl.FaultPlan {
			return &cxl.FaultPlan{Seed: 1, PoisonBase: r.Base, PoisonLen: 1 << 20, ViralThreshold: 4}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := testSpace(t)
			r, err := as.Alloc(4<<20, mem.Fixed(2))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig()
			cfg.Cores = 2
			cfg.Faults = tc.plan(r)
			m := New(cfg, as)
			f := obs.NewFlight(cfg.Cores, 1<<14, 64)
			f.Enable()
			m.SetFlight(f)
			reg := workload.Region{Base: r.Base, Size: r.Size}
			m.Attach(0, workload.NewStream(reg, 2, 0.2, 1))
			m.Attach(1, workload.NewPointerChase(reg, 2, 2))
			m.Run(400_000)
			m.Sync()

			replays, cxlRecs := 0, 0
			for c := 0; c < cfg.Cores; c++ {
				recs := f.CoreRecords(c)
				for i := range recs {
					rec := &recs[i]
					checkWaterfall(t, rec)
					if ServeLoc(rec.Loc) == SrvCXL {
						cxlRecs++
					}
					if rec.Replay > 0 {
						replays++
					}
				}
			}
			if cxlRecs == 0 {
				t.Fatal("no CXL-served records")
			}
			if tc.replay && replays == 0 {
				t.Fatal("CRC-burst run recorded no LRSM replay detour")
			}
			if !tc.replay && replays != 0 {
				t.Fatalf("%d records carry replay cycles on a link without CRC faults", replays)
			}
			if got := f.StageStats(obs.FlightLoad)[obs.StageLRSM].Spans; (got > 0) != tc.replay {
				t.Fatalf("LRSM stage aggregate counts %d records", got)
			}
		})
	}
}
