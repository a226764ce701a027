// Package experiment is the measurement harness behind EXPERIMENTS.md: it
// executes repeated house-hunting runs in parallel, aggregates them with the
// stats substrate, and provides the specialized probes for the paper's
// lemma-level claims (recruitment success probability, ignorant persistence,
// population-delta symmetry, initial gaps, small-nest extinction).
//
// Every probe is deterministic given its seed; the benchmark suite and the
// hhbench CLI both call into this package, so tables regenerate identically
// in either entry point.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// batchDisabled gates the batch-engine fast path for replicate loops. The
// batch engine is bit-identical to the scalar path for eligible
// (algorithm, config) pairs (see core.CompileForBatch), so it is on by
// default and every eligible measurement uses it automatically;
// SetBatchEngine(false) forces the scalar path, which the before/after
// benchmarks and the equivalence tests use.
var batchDisabled atomic.Bool

// SetBatchEngine toggles the batch-engine fast path (default enabled).
func SetBatchEngine(enabled bool) { batchDisabled.Store(!enabled) }

// BatchEngineEnabled reports whether the batch fast path is enabled.
func BatchEngineEnabled() bool { return !batchDisabled.Load() }

// ConvergencePoint aggregates repeated runs of one algorithm on one
// environment and colony size.
type ConvergencePoint struct {
	Algorithm string
	N         int
	K         int
	Reps      int
	Solved    int
	// SuccessRate is Solved/Reps.
	SuccessRate float64
	// Rounds summarizes convergence rounds over the SOLVED runs.
	Rounds stats.Summary
	// WinnerQuality summarizes q(winner) over the solved runs.
	WinnerQuality stats.Summary
}

// MeasureConvergence runs reps independent colonies (parallel across CPUs)
// and aggregates. cfg's N and Env are required; its Seed is ignored (each rep
// derives a seed from tag and the rep index). A rep that fails with a
// protocol/configuration error aborts the whole measurement: those are bugs,
// not outcomes.
func MeasureConvergence(algo core.Algorithm, cfg core.RunConfig, reps int, tag string) (ConvergencePoint, error) {
	if err := validateMeasurement(algo, reps); err != nil {
		return ConvergencePoint{}, err
	}
	runs, _, err := runReps(algo, cfg, repSeeds(reps, tag, cfg.N, cfg.Env.K()), nil)
	if err != nil {
		return ConvergencePoint{}, err
	}
	return aggregatePoint(algo, cfg, runs), nil
}

// validateMeasurement rejects the argument shapes every measurement shares.
func validateMeasurement(algo core.Algorithm, reps int) error {
	if algo == nil {
		return fmt.Errorf("experiment: nil algorithm")
	}
	if reps <= 0 {
		return fmt.Errorf("experiment: reps must be positive, got %d", reps)
	}
	return nil
}

// repSeeds derives one seed per replicate, workload.SeedFor(tag, a, b, rep)
// for rep = 1..reps: each rep's seed is a pure function of the tag, the two
// cell coordinates and the rep index, never of a config's Seed.
func repSeeds(reps int, tag string, a, b int) []uint64 {
	seeds := make([]uint64, reps)
	for rep := range seeds {
		seeds[rep] = workload.SeedFor(tag, a, b, rep+1)
	}
	return seeds
}

// repsStarted, when non-nil, sees every (algo, cfg) runReps is handed. It
// lets the differential tests prove that a table really ran batched rather
// than silently falling back to the scalar loop.
var repsStarted func(core.Algorithm, core.RunConfig)

// runReps executes one replicate of (algo, cfg) per seed — cfg.Seed is
// ignored — and returns the results in seed order. It is the one dispatch
// site of every replicate sweep: when the batch engine is enabled and the
// config compiles (see core.CompileForBatch) it runs one struct-of-arrays
// sweep with obs attached (nil for none); otherwise it falls back to the
// parallel scalar loop and obs sees nothing. The two paths are
// bit-identical; the boolean reports whether the batch engine ran.
func runReps(algo core.Algorithm, cfg core.RunConfig, seeds []uint64, obs sim.BatchObserver) ([]core.Result, bool, error) {
	if repsStarted != nil {
		repsStarted(algo, cfg)
	}
	if BatchEngineEnabled() {
		runs, ok, err := core.RunBatchObserved(algo, cfg, seeds, obs)
		if err != nil {
			return nil, false, fmt.Errorf("experiment: batch sweep: %w", err)
		}
		if ok {
			return runs, true, nil
		}
	}
	runs, err := runScalarReps(algo, cfg, seeds)
	return runs, false, err
}

// runScalarReps executes one scalar replicate per seed, parallel across CPUs.
func runScalarReps(algo core.Algorithm, cfg core.RunConfig, seeds []uint64) ([]core.Result, error) {
	return parallelRows(len(seeds), func(rep int) (core.Result, error) {
		repCfg := cfg
		repCfg.Seed = seeds[rep]
		res, err := core.Run(algo, repCfg)
		if err != nil {
			return core.Result{}, fmt.Errorf("experiment: rep %d: %w", rep, err)
		}
		return res, nil
	})
}

// parallelRows computes f(0), …, f(n-1) on at most maxParallelism() workers
// and returns the results in index order; on failure it returns the error of
// the lowest failing index. Each f(i) must be independent of the others.
// Workers claim indices from n-1 down to 0, so a caller whose rows grow with
// the index (E1's pools, E7's colonies) starts its heaviest row first rather
// than leaving one worker alone with it at the end.
func parallelRows[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(int64(n))
	var wg sync.WaitGroup
	for w := min(maxParallelism(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aggregatePoint reduces per-rep results to a ConvergencePoint.
func aggregatePoint(algo core.Algorithm, cfg core.RunConfig, runs []core.Result) ConvergencePoint {
	point := ConvergencePoint{Algorithm: algo.Name(), N: cfg.N, K: cfg.Env.K(), Reps: len(runs)}
	rounds := make([]float64, 0, len(runs))
	quality := make([]float64, 0, len(runs))
	for _, res := range runs {
		if res.Solved {
			point.Solved++
			rounds = append(rounds, float64(res.Rounds))
			quality = append(quality, res.WinnerQuality)
		}
	}
	point.SuccessRate = float64(point.Solved) / float64(len(runs))
	point.Rounds = stats.Summarize(rounds, false)
	point.WinnerQuality = stats.Summarize(quality, false)
	return point
}

// maxParallelism bounds the worker pool: one worker per CPU, at least one.
func maxParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		return 1
	}
	return p
}

// Sweep measures a whole (n, k) grid for one algorithm over binary
// environments with the given good-nest count rule (goodOf(k) clamped to
// [1, k]). MaxRounds <= 0 selects the runner's default budget.
func Sweep(algo core.Algorithm, grid workload.Grid, goodOf func(k int) int, reps, maxRounds int) ([]ConvergencePoint, error) {
	if goodOf == nil {
		goodOf = func(k int) int { return k }
	}
	points := make([]ConvergencePoint, 0, len(grid.Ns)*len(grid.Ks))
	for _, n := range grid.Ns {
		for _, k := range grid.Ks {
			good := goodOf(k)
			if good < 1 {
				good = 1
			}
			if good > k {
				good = k
			}
			env, err := workload.Binary(k, good)
			if err != nil {
				return nil, fmt.Errorf("experiment: building env k=%d good=%d: %w", k, good, err)
			}
			cfg := core.RunConfig{N: n, Env: env, MaxRounds: maxRounds}
			pt, err := MeasureConvergence(algo, cfg, reps, grid.Tag+"/"+algo.Name())
			if err != nil {
				return nil, fmt.Errorf("experiment: point n=%d k=%d: %w", n, k, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// FitRoundsVsLogN fits mean convergence rounds against log2(n) across points
// that share k. It feeds the E3/E6 shape checks.
func FitRoundsVsLogN(points []ConvergencePoint) (stats.LinearFit, error) {
	xs := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		if p.Solved == 0 {
			continue
		}
		xs = append(xs, float64(p.N))
		ys = append(ys, p.Rounds.Mean)
	}
	return stats.FitLogN(xs, ys)
}

// FitRoundsVsKLogN fits mean convergence rounds against k·log2(n) across all
// points — Theorem 5.11's shape.
func FitRoundsVsKLogN(points []ConvergencePoint) (stats.LinearFit, error) {
	ks := make([]float64, 0, len(points))
	ns := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		if p.Solved == 0 {
			continue
		}
		ks = append(ks, float64(p.K))
		ns = append(ns, float64(p.N))
		ys = append(ys, p.Rounds.Mean)
	}
	return stats.FitKLogN(ks, ns, ys)
}

// Table renders convergence points as an aligned text table.
func Table(title string, points []ConvergencePoint) string {
	tb := stats.NewTable(title, "algorithm", "n", "k", "reps", "success", "rounds(mean)", "rounds(p95)", "winnerQ")
	for _, p := range points {
		tb.AddRow(
			p.Algorithm,
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.Reps),
			fmt.Sprintf("%.3f", p.SuccessRate),
			fmt.Sprintf("%.1f", p.Rounds.Mean),
			fmt.Sprintf("%.1f", p.Rounds.P95),
			fmt.Sprintf("%.2f", p.WinnerQuality.Mean),
		)
	}
	return tb.String()
}
