package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, start and end relative to
// the tracer's origin, and the index of the span that enclosed it (-1 for a
// root span).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory for the traced run; it is written out as a
// Chrome trace only when the run ends.  A nil *tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
}

// selfSeconds returns each span name's summed self time: a span's duration
// minus the part its child spans cover.  Children of one span never
// overlap, because every traced call runs on the benchmark's goroutine.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.name] += (s.end - s.start - child[i]).Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.  Times are in µs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace JSON object.  Each event
// carries its own index and its parent's, so the span tree survives the
// format's flat event list.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, err = w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	for i, s := range t.spans {
		if err != nil {
			break
		}
		if i > 0 {
			_, err = w.WriteString(",")
		}
		if err == nil {
			err = enc.Encode(chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: 1,
				Ts:   float64(s.start.Nanoseconds()) / 1e3,
				Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
				Args: map[string]int{"id": i, "parent": s.parent},
			})
		}
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	return nil
}
