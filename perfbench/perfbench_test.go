package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// seq returns the samples 1..n in reverse order, so tail must sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{200, 180}, // the 90th percentile: 20 samples beyond
		{100, 90},  // exactly 10 beyond
		{60, 50},   // p90 would leave 6 beyond; the rule steps down to 10 beyond
		{27, 17},
		{12, 7}, // ten beyond would fall under the median: the upper middle sample
		{8, 5},
		{5, 3}, // an odd count: the median sample itself
	} {
		got := tail(seq(tc.n))
		if got != tc.want {
			t.Errorf("tail of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := tc.n - int(got); tc.n >= 20 && beyond < 10 {
			t.Errorf("tail of 1..%d leaves %d samples beyond it", tc.n, beyond)
		}
	}
}

// smallConfig shrinks every workload to a unit-test budget while keeping
// its code path: colony-large stays above the 2^16 popT crossover.
func smallConfig(workload string, seed uint64, traced bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, seed, 0.01, traced
	cfg.sweepN, cfg.sweepReps = 128, 4
	cfg.colonyN = 1<<16 + 1000
	cfg.suiteIDs = []string{"E11", "E19"}
	return cfg
}

// result runs cfg and returns its digest line and parsed result line.
func runResult(t *testing.T, cfg config) (string, result) {
	t.Helper()
	if cfg.trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	var out bytes.Buffer
	if err := execute(cfg, &out); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", cfg.workload, lines[len(lines)-1], err)
	}
	var digest string
	for _, l := range lines {
		if strings.HasPrefix(l, "digest: ") {
			digest = l
		}
	}
	if digest == "" {
		t.Fatalf("%s: no digest line in\n%s", cfg.workload, out.String())
	}
	return digest, res
}

// benchmarkSpec reads the metric names and units BENCHMARK.json publishes.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestSmoke runs every workload, untraced and traced, at a shrunken size:
// each must pass its output check, print exactly the published metrics with
// their units, and give the traced run the untraced run's digest.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, published := benchmarkSpec(t)
	for _, name := range published {
		if workloads[name] == nil {
			t.Errorf("BENCHMARK.json publishes %s, which the program does not run", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(name, func(t *testing.T) {
			digest, res := runResult(t, smallConfig(name, 7, false))
			check(t, "untraced", res, endToEnd)
			tracedDigest, traced := runResult(t, smallConfig(name, 7, true))
			check(t, "traced", traced, perLayer)
			if tracedDigest != digest {
				t.Errorf("traced %s, untraced %s", tracedDigest, digest)
			}
		})
	}
}

func check(t *testing.T, mode string, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json publishes %d", mode, len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", mode, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", mode, name, m.Unit, unit)
		}
	}
}

// TestDigest pins that the results digest is a function of the seed: the
// same seed repeats it, another seed changes it.
func TestDigest(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		a, _ := runResult(t, smallConfig(name, 1, false))
		b, _ := runResult(t, smallConfig(name, 1, false))
		c, _ := runResult(t, smallConfig(name, 2, false))
		if a != b {
			t.Errorf("%s: seed 1 gave %s, then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave %s", name, a)
		}
	}
}
