package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Stage identifies one segment of a request's traversal of the machine —
// the waterfall rows of the paper's §2.2 data paths.  Stage boundaries are
// the stage deltas a FlightRec carries, which are the crossings the
// simulator already computes, so the waterfall adds no timing model of its
// own.
type Stage uint8

// Stages, in path order.
const (
	StageReq      Stage = iota // whole request: issue -> data return
	StageSB                    // store side before the L2: SB wait, drain, LFB
	StageLFB                   // load side before the L2: LFB allocation / merge wait
	StageL2                    // L2 lookup segment
	StageCHA                   // CHA/TOR dispatch segment (mesh + LLC lookup)
	StageIMC                   // IMC channel: RPQ/WPQ + DRAM media + return
	StageM2PCIe                // M2PCIe ingress: mesh -> link credit wait
	StageCXLLink               // FlexBus serialization + flight, host -> device
	StageCXLDevQ               // device packing buffer + controller + RPQ/WPQ wait
	StageCXLMedia              // device media access
	StageCXLRet                // response: device -> host link + M2PCIe egress + mesh
	StageLRSM                  // LRSM retry/replay detours (CRC-corrupted transfers)
	StageCount
)

var stageNames = [StageCount]string{
	"req", "sb", "lfb", "l2", "cha", "imc",
	"m2pcie", "cxl_link", "cxl_devq", "cxl_media", "cxl_return", "lrsm_replay",
}

// String returns the stage's waterfall/export name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Span is one timestamped segment of a request, in simulated cycles.
type Span struct {
	Stage      Stage
	Start, End uint64
}

// maxSpans bounds a record's waterfall: the request envelope plus its
// path segments.
const maxSpans = 1 + maxSegments

// StageStat is the running aggregate of one stage across every record the
// flight recorder has seen, independent of ring capacity.
type StageStat struct {
	Spans  uint64
	Cycles uint64
}

// Spans appends the record's waterfall to dst: the request envelope
// (StageReq) and the path segments that tile Issue..Done exactly, one per
// stage the request reached.  A request that never left the core has the
// envelope alone.  The device segments follow the serving backend: a CXL
// request (one that reached the link, or was fast-failed at the M2PCIe
// boundary and so has no IMC data time) splits into m2pcie, cxl_link,
// cxl_devq, cxl_media and cxl_return; a DRAM request has one imc segment.
// Zero-length segments are dropped.  LRSM replays are not positioned in
// the record, so they are not a segment; Replay carries their cycles.
func (r *FlightRec) Spans(dst []Span) []Span {
	if r.Done <= r.Issue {
		return dst
	}
	dst = append(dst, Span{Stage: StageReq, Start: r.Issue, End: r.Done})
	var segs [maxSegments]segment
	for _, sg := range segs[:r.segments(&segs)] {
		dst = append(dst, Span{Stage: sg.st, Start: r.Issue + uint64(sg.from), End: r.Issue + uint64(sg.to)})
	}
	return dst
}

// segment is one path segment as cycle offsets from Issue.
type segment struct {
	st       Stage
	from, to uint32
}

// maxSegments bounds a record's path segments: one per stage boundary.
const maxSegments = 8

// The stage each boundary opens, in path order: L2Start, TOREnter,
// MemEnter, TxStart, DevArrive, MediaStart, Data.
var (
	cxlPath  = [...]Stage{StageL2, StageCHA, StageM2PCIe, StageCXLLink, StageCXLDevQ, StageCXLMedia, StageCXLRet}
	dramPath = [...]Stage{StageL2, StageCHA, StageIMC}
)

// segments fills out with the record's path segments (see Spans) and
// returns their count.
func (r *FlightRec) segments(out *[maxSegments]segment) int {
	lat := r.Latency()
	if r.L2Start == 0 || lat == 0 {
		return 0
	}
	at := [...]uint32{r.L2Start, r.TOREnter, r.MemEnter, r.TxStart, r.DevArrive, r.MediaStart, r.Data}
	path := cxlPath[:]
	if r.TxStart == 0 && r.Data != 0 {
		path = dramPath[:] // DRAM-served: the memory path is one IMC segment
	}
	cur := StageLFB
	if r.Class&1 == FlightStore {
		cur = StageSB
	}
	n, from := 0, uint32(0)
	for i, st := range path {
		b := at[i]
		if b == 0 || b < from {
			continue
		}
		if b > from {
			out[n] = segment{cur, from, b}
			n++
		}
		cur, from = st, b
	}
	if lat > uint64(from) {
		out[n] = segment{cur, from, uint32(min(lat, 1<<32-1))}
		n++
	}
	return n
}

// chromeEvent is one Chrome trace_event "complete" event ("ph":"X") — the
// format Perfetto and chrome://tracing load directly.  Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  uint16         `json:"pid"`
	TID  uint32         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders flight records as Chrome trace_event JSON: one
// track per (core, request sequence number), one complete event per
// waterfall span (FlightRec.Spans), cycles converted to microseconds at
// ghz.  locName labels the serving location (nil prints the ordinal).  The
// output loads in Perfetto (ui.perfetto.dev) as a per-request latency
// waterfall.
func WriteChromeTrace(w io.Writer, recs []FlightRec, ghz float64, locName func(uint8) string) error {
	if ghz <= 0 {
		ghz = 1
	}
	if locName == nil {
		locName = func(l uint8) string { return strconv.Itoa(int(l)) }
	}
	us := func(cycles uint64) float64 { return float64(cycles) / (ghz * 1e3) }
	doc := chromeDoc{DisplayTimeUnit: "ns", TraceEvents: make([]chromeEvent, 0, len(recs)*4)}
	var buf [maxSpans]Span
	for i := range recs {
		r := &recs[i]
		for _, sp := range r.Spans(buf[:0]) {
			ev := chromeEvent{
				Name: sp.Stage.String(),
				Cat:  "cxl-path",
				Ph:   "X",
				TS:   us(sp.Start),
				Dur:  us(sp.End - sp.Start),
				PID:  r.Core,
				TID:  r.Seq,
			}
			if sp.Stage == StageReq {
				ev.Args = map[string]any{
					"addr":  r.Addr,
					"class": FlightClassName(r.Class),
					"loc":   locName(r.Loc),
				}
				if r.Replay > 0 {
					ev.Args["lrsm_replay_cycles"] = r.Replay
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	return json.NewEncoder(w).Encode(&doc)
}
