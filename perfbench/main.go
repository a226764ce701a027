package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// maxProcs caps GOMAXPROCS so that hosts with more cores measure the same
// lanes×shards topology as the 2-core reference host.
const maxProcs = 2

// The published landscapes: sweep-small colonies search k=4 nests of which
// 2 are good, colony-large ones k=16 with 2 good (or a quality ladder).
// Every replicate runs to convergence within maxRounds; colony-large
// replicates are replayed on the scalar engine for checkRounds rounds.
const (
	sweepK, sweepGood   = 4, 2
	colonyK, colonyGood = 16, 2
	maxRounds           = 4000
	checkRounds         = 3
)

// config sizes one benchmark run. defaultConfig is the published point; the
// self-tests shrink the colonies and the table list.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // traced runs write their spans here ("" = nowhere)

	sweepN, sweepReps int
	colonyN           int
	suiteIDs          []string // nil = every experiment
}

func defaultConfig() config {
	return config{sweepN: 1024, sweepReps: 32, colonyN: 1_000_000}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"sweep-small":  runSweep,
	"colony-large": runColony,
	"paper-suite":  runSuite,
}

// report is what one workload run measured, before it becomes metrics.
type report struct {
	setupS    []float64 // one sample per set-up repetition
	opMs      []float64 // untraced op latencies
	wall      time.Duration
	allocs    uint64 // TotalAlloc delta over the timed loop
	peakRSSMB float64
	attempted int
	failed    int
	digest    uint64
	info      []string           // host/topology lines printed before the result
	layers    map[string]float64 // per-layer metrics (traced runs only)
}

// failf records a failed op with its reason on stderr.
func (r *report) failf(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the metrics an untraced run prints, with their units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

func run(args []string, out io.Writer) error {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep-small, colony-large or paper-suite")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	cfg.trace = *traceFlag == 1
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	return execute(cfg, out)
}

// execute runs one configured workload and prints its result.
func execute(cfg config, out io.Writer) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep, err := runner(cfg)
	if err != nil {
		return err
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		return err
	}
	for _, line := range append(hostInfo(), rep.info...) {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "digest: %016x\n", rep.digest)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// result turns the report into the printed metrics: the end-to-end set for
// an untraced run, the per-layer set for a traced one.
func (r *report) result(traced bool) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, m := range perLayer() {
			v, ok := r.layers[m.name]
			if !ok {
				return res, fmt.Errorf("traced run did not measure %s", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		ops := float64(len(r.opMs))
		values := map[string]float64{
			"setup_s":            median(r.setupS),
			"ops_per_s":          ops / r.wall.Seconds(),
			"op_ms_p50":          median(r.opMs),
			"op_ms_p90":          tail(r.opMs),
			"alloc_bytes_per_op": float64(r.allocs) / ops,
			"peak_rss_mb":        r.peakRSSMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set size so far (VmHWM).
// getrusage's maxrss would not do: Linux carries the launching process's
// peak across exec into it, so it reads the launcher's size as a floor.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostInfo stamps the result with what a cross-host comparison needs.
func hostInfo() []string {
	return []string{fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeSpans writes a traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return errors.Join(w.Flush(), f.Close())
}
