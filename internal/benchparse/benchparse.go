// Package benchparse parses `go test -bench` output and the BENCH_*.json
// snapshots emitted by cmd/benchjson, and compares the two for perf
// regressions.  It is shared by cmd/benchjson (text -> JSON) and
// cmd/benchregress (current run vs committed baseline).
package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	SimOpsSec  float64            `json:"sim_ops_per_sec,omitempty"`
}

// Doc is one benchmark snapshot (the BENCH_<date>.json layout).
//
// GoMaxProcs records the GOMAXPROCS the run measured at: ns/op from
// different values are different experiments and must never be compared
// (see ProcsMismatch).
type Doc struct {
	Date       string      `json:"date"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Find returns the named benchmark, or nil.
func (d *Doc) Find(name string) *Benchmark {
	for i := range d.Benchmarks {
		if d.Benchmarks[i].Name == name {
			return &d.Benchmarks[i]
		}
	}
	return nil
}

// Best returns the named benchmark's fastest run (minimum ns/op) when the
// output holds -count repetitions, or nil.  Gating on the best run filters
// scheduler noise: interference only ever inflates ns/op.
func (d *Doc) Best(name string) *Benchmark {
	var best *Benchmark
	for i := range d.Benchmarks {
		b := &d.Benchmarks[i]
		if b.Name != name {
			continue
		}
		if best == nil || b.Metrics["ns/op"] < best.Metrics["ns/op"] {
			best = b
		}
	}
	return best
}

// Parse reads `go test -bench` text output into a Doc.  Header lines
// (goos/goarch/pkg/cpu) fill the Doc fields; Benchmark result lines are
// parsed with ParseLine.  The -N name suffix go test appends (the run's
// GOMAXPROCS) is recorded into doc.GoMaxProcs; go test omits the suffix
// entirely when GOMAXPROCS is 1, so any parsed result without one means 1.
func Parse(in io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := ParseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
				if p := lineProcs(strings.Fields(line)[0]); p > doc.GoMaxProcs {
					doc.GoMaxProcs = p
				}
			}
		}
	}
	if len(doc.Benchmarks) > 0 && doc.GoMaxProcs == 0 {
		doc.GoMaxProcs = 1
	}
	return doc, sc.Err()
}

// lineProcs extracts the -GOMAXPROCS suffix from a benchmark name, or 0.
func lineProcs(name string) int {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// ParseLine parses one result line:
//
//	BenchmarkSimCXLStream-8   300000   671.0 ns/op   43 B/op   1 allocs/op
//
// Every "<value> <unit>" pair is kept; a derived sim_ops_per_sec is added
// for benchmarks reporting ns/op.  The -GOMAXPROCS suffix is stripped from
// the name (it is not part of the identity).
func ParseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
		b.SimOpsSec = 1e9 / ns
	}
	return b, true
}

// ReadDoc loads a BENCH_*.json snapshot.
func ReadDoc(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc := &Doc{}
	if err := json.NewDecoder(f).Decode(doc); err != nil {
		return nil, fmt.Errorf("benchparse: %s: %w", path, err)
	}
	return doc, nil
}

// LatestBaseline returns the lexicographically last BENCH_*.json in dir —
// the dated naming makes that the most recent committed snapshot.
func LatestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("benchparse: no BENCH_*.json baseline in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// ProcsMismatch reports why base and cur must not be compared: a different
// GOMAXPROCS moves ns/op for reasons that are not regressions.  A side
// that predates the field (zero) is unknown and allowed through — old
// baselines age out, they don't brick the gate.
func ProcsMismatch(base, cur *Doc) error {
	if base.GoMaxProcs != 0 && cur.GoMaxProcs != 0 && base.GoMaxProcs != cur.GoMaxProcs {
		return fmt.Errorf("benchparse: GOMAXPROCS mismatch: baseline ran with %d, current with %d — rerun with GOMAXPROCS=%d or record a new baseline",
			base.GoMaxProcs, cur.GoMaxProcs, base.GoMaxProcs)
	}
	return nil
}

// Regression is one watched benchmark whose ns/op grew beyond tolerance,
// or (Metric set) whose absolute metric value exceeded a pinned ceiling.
type Regression struct {
	Name            string
	BaseNS, CurNS   float64
	Growth          float64 // (cur-base)/base
	Metric          string  // set by CompareMax: the asserted unit
	MissingBaseline bool    // watched name absent from the baseline
	MissingCurrent  bool    // watched name absent from the current run
}

func (r Regression) String() string {
	switch {
	case r.MissingBaseline:
		return fmt.Sprintf("%s: not in baseline (cannot gate)", r.Name)
	case r.MissingCurrent:
		return fmt.Sprintf("%s: missing from current run", r.Name)
	case r.Metric != "":
		return fmt.Sprintf("%s: %g %s exceeds pinned ceiling %g",
			r.Name, r.CurNS, r.Metric, r.BaseNS)
	}
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%+.1f%%)",
		r.Name, r.BaseNS, r.CurNS, r.Growth*100)
}

// CompareMax gates absolute metric ceilings within the current run: each
// spec is "Name:metric:limit" (e.g. "BenchmarkSimCXLStream:B/op:64") and
// fails when the benchmark's metric exceeds the limit.  It pins
// known-amortized costs — a B/op residual that is one-time buffer growth
// spread over b.N stays documented and bounded instead of silently turning
// into a real per-op allocation.  Repeated runs are collapsed to the
// fastest, matching Compare.
func CompareMax(cur *Doc, specs []string) ([]Regression, error) {
	var out []Regression
	for _, s := range specs {
		s = strings.TrimSpace(s)
		name, rest, ok := strings.Cut(s, ":")
		if !ok {
			return nil, fmt.Errorf("benchparse: bad max spec %q (want Name:metric:limit)", s)
		}
		metric, limStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("benchparse: bad max spec %q (want Name:metric:limit)", s)
		}
		limit, err := strconv.ParseFloat(limStr, 64)
		if err != nil {
			return nil, fmt.Errorf("benchparse: bad max spec %q: %v", s, err)
		}
		b := cur.Best(name)
		if b == nil {
			out = append(out, Regression{Name: name + " " + metric, Metric: metric, MissingCurrent: true})
			continue
		}
		v, ok := b.Metrics[metric]
		if !ok {
			// A watched metric the run did not report (e.g. -benchmem
			// missing) must fail loudly, not pass silently.
			out = append(out, Regression{Name: name + " " + metric, Metric: metric, MissingCurrent: true})
			continue
		}
		if v > limit {
			out = append(out, Regression{Name: name, Metric: metric, BaseNS: limit, CurNS: v})
		}
	}
	return out, nil
}

// ComparePairs gates variant benchmarks against their base WITHIN one run:
// each pair is "Variant=Base", and the variant's ns/op may exceed the
// base's by at most tolerance.  Because both sides come from the same
// `go test -bench` output on the same machine, the gate is immune to the
// environment drift that plagues committed-baseline comparisons.
//
// The output may hold several rounds (the k-th result of a name belongs to
// round k): the gate takes the variant/base ratio per round and compares
// the median ratio.  Host speed drifts over seconds, so pairing each
// variant run with the base run of its own round — rather than the best of
// each side, possibly minutes apart — keeps drift out of the ratio, and the
// median ignores a round a noisy neighbour hit.  That is what makes a
// tolerance as tight as 2% enforceable.
func ComparePairs(cur *Doc, pairs []string, tolerance float64) ([]Regression, error) {
	var out []Regression
	for _, p := range pairs {
		variant, base, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("benchparse: bad pair %q (want Variant=Base)", p)
		}
		variant, base = strings.TrimSpace(variant), strings.TrimSpace(base)
		name := variant + " (vs " + base + ")"
		vs, bs := cur.rounds(variant), cur.rounds(base)
		switch {
		case len(bs) == 0:
			out = append(out, Regression{Name: name, MissingBaseline: true})
			continue
		case len(vs) == 0:
			out = append(out, Regression{Name: name, MissingCurrent: true})
			continue
		}
		n := min(len(vs), len(bs))
		ratios := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			if bs[k] > 0 && vs[k] > 0 {
				ratios = append(ratios, vs[k]/bs[k])
			}
		}
		if len(ratios) == 0 {
			continue
		}
		if growth := median(ratios) - 1; growth > tolerance {
			out = append(out, Regression{Name: name, BaseNS: median(bs[:n]), CurNS: median(vs[:n]), Growth: growth})
		}
	}
	return out, nil
}

// rounds returns the named benchmark's ns/op results in output order.
func (d *Doc) rounds(name string) []float64 {
	var ns []float64
	for i := range d.Benchmarks {
		if d.Benchmarks[i].Name == name {
			ns = append(ns, d.Benchmarks[i].Metrics["ns/op"])
		}
	}
	return ns
}

// median returns the median of xs (the mean of the middle two for an even
// count), leaving xs unmodified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Compare gates the watched benchmarks: any whose current ns/op exceeds the
// baseline by more than tolerance (0.20 = +20%) is returned.  Repeated runs
// (-count) are collapsed to their fastest on both sides.  A watched
// benchmark missing from either side is also returned — silently skipping
// the gate would read as a pass.
func Compare(base, cur *Doc, watch []string, tolerance float64) []Regression {
	var out []Regression
	for _, name := range watch {
		b, c := base.Best(name), cur.Best(name)
		switch {
		case b == nil:
			out = append(out, Regression{Name: name, MissingBaseline: true})
			continue
		case c == nil:
			out = append(out, Regression{Name: name, MissingCurrent: true})
			continue
		}
		baseNS, curNS := b.Metrics["ns/op"], c.Metrics["ns/op"]
		if baseNS <= 0 || curNS <= 0 {
			continue
		}
		if growth := (curNS - baseNS) / baseNS; growth > tolerance {
			out = append(out, Regression{Name: name, BaseNS: baseNS, CurNS: curNS, Growth: growth})
		}
	}
	return out
}
