package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"
)

// cxlRec is a demand load served by CXL memory: every stage boundary set.
func cxlRec() FlightRec {
	return FlightRec{
		Addr: 0x1000, Issue: 100, Done: 1100, Seq: 7, Core: 2, Class: FlightLoad, Loc: 9,
		L2Start: 10, TOREnter: 30, MemEnter: 80,
		TxStart: 150, DevArrive: 250, MediaStart: 400, Data: 700, Replay: 60,
	}
}

// TestFlightRecSize pins the packed layout: records sit in per-core rings
// filed on every completion, so growth is paid on every request.
func TestFlightRecSize(t *testing.T) {
	if got := unsafe.Sizeof(FlightRec{}); got > 64 {
		t.Fatalf("FlightRec is %d bytes, want <= 64", got)
	}
}

func TestFlightRecSpans(t *testing.T) {
	type seg struct {
		st         Stage
		start, end uint64
	}
	dram := FlightRec{Issue: 100, Done: 400, Class: FlightLoad, L2Start: 10, TOREnter: 30, MemEnter: 80, Data: 250}
	l1 := FlightRec{Issue: 100, Done: 105, Class: FlightLoad}
	store := cxlRec()
	store.Class = FlightStore
	fastFail := FlightRec{Issue: 100, Done: 300, Class: FlightLoad, L2Start: 10, TOREnter: 30, MemEnter: 80}
	llcHit := FlightRec{Issue: 100, Done: 200, Class: FlightLoad, L2Start: 10, TOREnter: 10}
	cxl := cxlRec()
	for _, tc := range []struct {
		name string
		rec  FlightRec
		want []seg
	}{
		{"cxl", cxl, []seg{{StageReq, 100, 1100}, {StageLFB, 100, 110}, {StageL2, 110, 130},
			{StageCHA, 130, 180}, {StageM2PCIe, 180, 250}, {StageCXLLink, 250, 350},
			{StageCXLDevQ, 350, 500}, {StageCXLMedia, 500, 800}, {StageCXLRet, 800, 1100}}},
		{"store", store, []seg{{StageReq, 100, 1100}, {StageSB, 100, 110}, {StageL2, 110, 130},
			{StageCHA, 130, 180}, {StageM2PCIe, 180, 250}, {StageCXLLink, 250, 350},
			{StageCXLDevQ, 350, 500}, {StageCXLMedia, 500, 800}, {StageCXLRet, 800, 1100}}},
		{"dram", dram, []seg{{StageReq, 100, 400}, {StageLFB, 100, 110}, {StageL2, 110, 130},
			{StageCHA, 130, 180}, {StageIMC, 180, 400}}},
		{"l1-hit", l1, []seg{{StageReq, 100, 105}}},
		{"fast-fail", fastFail, []seg{{StageReq, 100, 300}, {StageLFB, 100, 110}, {StageL2, 110, 130},
			{StageCHA, 130, 180}, {StageM2PCIe, 180, 300}}},
		// A zero-length L2 segment (TOR entry at L2 start) is dropped.
		{"llc-hit", llcHit, []seg{{StageReq, 100, 200}, {StageLFB, 100, 110}, {StageCHA, 110, 200}}},
	} {
		var got []seg
		for _, sp := range tc.rec.Spans(nil) {
			got = append(got, seg{sp.Stage, sp.Start, sp.End})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: spans\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	recs := []FlightRec{cxlRec()}
	var buf bytes.Buffer
	locName := func(l uint8) string {
		if l == 9 {
			return "CXL memory"
		}
		return "?"
	}
	if err := WriteChromeTrace(&buf, recs, 2.0, locName); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int32          `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		names = append(names, ev.Name)
	}
	want := []string{"req", "lfb", "l2", "cha", "m2pcie", "cxl_link", "cxl_devq", "cxl_media", "cxl_return"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "X" || ev.PID != 2 || ev.TID != 7 {
		t.Fatalf("bad req event: %+v", ev)
	}
	// 100 cycles at 2 GHz = 50 ns = 0.05 µs start; 1000 cycles = 0.5 µs dur.
	if ev.TS != 0.05 || ev.Dur != 0.5 {
		t.Fatalf("ts/dur = %v/%v, want 0.05/0.5", ev.TS, ev.Dur)
	}
	if ev.Args["loc"] != "CXL memory" || ev.Args["class"] != "DRd" || ev.Args["lrsm_replay_cycles"] != 60.0 {
		t.Fatalf("req args = %v", ev.Args)
	}
}

// TestFlightStageAggregates: the recorder folds every record's waterfall
// into per-stage aggregates, with LRSM replays counted on their own row.
func TestFlightStageAggregates(t *testing.T) {
	f := NewFlight(1, 4, 4)
	f.Enable()
	for i := 0; i < 3; i++ {
		f.Record(0, cxlRec())
	}
	st := f.StageStats(FlightLoad)
	if st[StageCXLDevQ] != (StageStat{Spans: 3, Cycles: 450}) {
		t.Fatalf("cxl_devq aggregate %+v, want 3 spans / 450 cycles", st[StageCXLDevQ])
	}
	if st[StageLRSM] != (StageStat{Spans: 3, Cycles: 180}) {
		t.Fatalf("lrsm aggregate %+v, want 3 records / 180 cycles", st[StageLRSM])
	}
	if st[StageIMC].Spans != 0 || f.StageStats(FlightStore)[StageReq].Spans != 0 {
		t.Fatal("stage aggregates leaked across backends or classes")
	}
	// Ring records carry the sequence number the pipeline stamped.
	if recs := f.Records(); len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("Records() = %+v, want seq 1..3", recs)
	}
}
