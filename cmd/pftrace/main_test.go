package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
)

// TestBundleCXLTailStages: a promoted CXL load renders its device segment
// as the five CXL stages, tiling MemEnter..Done exactly, rather than as one
// link span.
func TestBundleCXLTailStages(t *testing.T) {
	rec := obs.FlightRec{
		Addr: 0x4000, Issue: 1000, Done: 2000, Seq: 42, Core: 1,
		Class: obs.FlightLoad, Loc: uint8(sim.SrvCXL),
		L2Start: 10, TOREnter: 30, MemEnter: 80,
		TxStart: 150, DevArrive: 250, MediaStart: 400, Data: 700,
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "bundle.json"), filepath.Join(dir, "tail.json")
	raw, err := json.Marshal(obs.Bundle{
		Schema: obs.BundleSchema, Trigger: "test",
		Flight: obs.FlightSnapshot{Tail: []obs.TailRec{{FlightRec: rec}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// 1 GHz: one cycle is one nanosecond, 1e-3 µs.
	bundle([]string{"-i", in, "-o", out, "-ghz", "1"})

	raw, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bundle trace is not JSON: %v", err)
	}
	want := []string{"m2pcie", "cxl_link", "cxl_devq", "cxl_media", "cxl_return"}
	var got []string
	var cycles []uint64
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "req", "lfb", "l2", "cha":
			continue
		}
		got = append(got, ev.Name)
		cycles = append(cycles, uint64(ev.TS*1e3+0.5), uint64((ev.TS+ev.Dur)*1e3+0.5))
	}
	if len(got) != len(want) {
		t.Fatalf("device events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("device events %v, want %v", got, want)
		}
	}
	// The device spans tile MemEnter..Done: contiguous, no gap or overlap.
	at := rec.Issue + uint64(rec.MemEnter)
	for i := 0; i < len(cycles); i += 2 {
		if cycles[i] != at {
			t.Fatalf("%s starts at cycle %d, want %d", got[i/2], cycles[i], at)
		}
		at = cycles[i+1]
	}
	if at != rec.Done {
		t.Fatalf("device spans end at cycle %d, want Done %d", at, rec.Done)
	}
}
