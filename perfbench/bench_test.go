package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool, traceOut, pin string) *result {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := run(options{w: w.tiny(), seed: seed, seconds: time.Millisecond,
		traced: traced, traceOut: traceOut, pin: pin})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", name, len(got), len(want))
	}
	for n, unit := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: metric %s missing", name, n)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s in %s, declared %s", name, n, m.Unit, unit)
		}
	}
}

// TestEveryWorkloadEveryMetric runs each workload at a tiny size, untraced
// and traced: every declared metric appears with its unit, the runs are
// correct, and the traced run reproduces the untraced run's digest.
func TestEveryWorkloadEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		if w.suite && testing.Short() {
			continue
		}
		res := tinyRun(t, w.name, defaultSeed, false, "", "")
		checkMetrics(t, w.name, res.Metrics, endToEnd)
		if !res.Correct || res.Metrics["ok_ratio"].Value != 1 {
			t.Errorf("%s: untraced runs disagree: %+v", w.name, res)
		}
		res = tinyRun(t, w.name, defaultSeed, true, "", "")
		checkMetrics(t, w.name+" traced", res.Metrics, perLayer)
		if !res.Correct || res.Attempted != 2 {
			t.Errorf("%s: traced digest differs from untraced: %+v", w.name, res)
		}
	}
}

// TestPerturbedSeedFailsDigest pins the default seed's digest and runs
// another seed against it: every run must count as failed.
func TestPerturbedSeedFailsDigest(t *testing.T) {
	w, _ := lookupWorkload("kv-write-4c")
	o := options{w: w.tiny(), seed: defaultSeed, seconds: time.Millisecond}
	_, env, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.seed, o.pin = defaultSeed+1, env.Digest
	res, env2, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Digest == env.Digest {
		t.Fatal("seed does not reach the output digest")
	}
	if res.Correct || res.Failed != res.Attempted || res.Metrics["ok_ratio"].Value != 0 {
		t.Errorf("perturbed seed passed the digest check: %+v", res)
	}
}

// TestChromeTraceParses checks the traced run's span file is valid Chrome
// trace JSON whose parent links point at enclosing spans.
func TestChromeTraceParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tinyRun(t, "profile-32c", defaultSeed, true, path, "")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	evs := doc.TraceEvents
	names := map[string]bool{}
	for i, e := range evs {
		names[e.Name] = true
		if e.Ph != "X" || e.Dur < 0 || e.Args["id"] != i {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if p := e.Args["parent"]; p >= 0 {
			pe := evs[p]
			if p >= i || e.Ts < pe.Ts || e.Ts+e.Dur > pe.Ts+pe.Dur+1 {
				t.Fatalf("event %d (%s) not inside its parent %d (%s)", i, e.Name, p, pe.Name)
			}
		}
	}
	for _, n := range []string{"setup.machine", "sim.run", "core.capture", "core.build",
		"core.estimate", "core.analyze", "core.materialize", "tsdb.query", "report.render"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	xs = append(xs, 100)
	if p, err := percentile(xs, 0.9); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
}
