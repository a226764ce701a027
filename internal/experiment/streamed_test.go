package experiment

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/trace"
	"github.com/gmrl/househunt/internal/workload"
)

// This file pins the streamed-measurement contract on a fixed grid: the
// ConvergencePoint out of MeasureConvergenceStreamed is identical to
// MeasureConvergence's (observation is draw-free), the online distributions
// agree with post-hoc statistics over the same runs, and the batch-streamed
// fold matches the scalar fold on the same cell (same multiset of
// observations, so the integer-count sketch is bucket-identical).

// streamedGrid returns the pinned (algorithm, environment) cells. Shapes
// cover the lockstep path, the quality-recruit family on a graded
// environment, and the quorum-transport strategy.
func streamedGrid(t *testing.T) []struct {
	name string
	algo core.Algorithm
	env  sim.Environment
} {
	t.Helper()
	binary, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	graded := sim.MustEnvironment([]float64{0.3, 0.9, 0.2, 0})
	return []struct {
		name string
		algo core.Algorithm
		env  sim.Environment
	}{
		{"simple", algo.Simple{}, binary},
		{"quality", algo.QualityAware{}, graded},
		{"quorum", algo.Quorum{}, binary},
		{"optimal", algo.Optimal{}, binary},
	}
}

// TestMeasureConvergenceStreamedMatchesScalar is the experiment layer of the
// telemetry differential harness: on each pinned cell the streamed
// measurement's point equals the plain measurement's, the streamed Welford
// moments equal the post-hoc Summarize over the same runs, the quantile
// sketch answers within DefaultSketchAlpha of the exact sample quantiles,
// and RoundsObserved counts every executed round of the sweep.
func TestMeasureConvergenceStreamedMatchesScalar(t *testing.T) {
	const (
		reps = 24
		tag  = "streamed-equiv"
	)
	for _, tc := range streamedGrid(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.RunConfig{N: 96, Env: tc.env, MaxRounds: 4000}

			want, err := MeasureConvergence(tc.algo, cfg, reps, tag)
			if err != nil {
				t.Fatal(err)
			}
			point, dist, err := MeasureConvergenceStreamed(tc.algo, cfg, reps, tag)
			if err != nil {
				t.Fatal(err)
			}
			if !dist.Streamed {
				t.Fatal("batch-eligible cell did not stream")
			}
			if !reflect.DeepEqual(point, want) {
				t.Fatalf("streamed point diverged:\nstreamed: %+v\nplain:    %+v", point, want)
			}
			if point.Solved == 0 {
				t.Fatalf("cell solved no replicates; the check is vacuous")
			}

			// Post-hoc oracle: the same sweep's per-rep results.
			runs, ok, err := core.RunBatch(tc.algo, cfg, repSeeds(reps, tag, cfg.N, cfg.Env.K()))
			if err != nil || !ok {
				t.Fatalf("oracle sweep: ok=%v err=%v", ok, err)
			}
			var wantObserved uint64
			var rounds, quality []float64
			for _, res := range runs {
				wantObserved += uint64(res.Rounds)
				if res.Solved {
					rounds = append(rounds, float64(res.Rounds))
					quality = append(quality, res.WinnerQuality)
				}
			}
			if dist.RoundsObserved != wantObserved {
				t.Errorf("RoundsObserved = %d, want %d (sum of executed rounds)", dist.RoundsObserved, wantObserved)
			}
			checkWelford(t, "Rounds", &dist.Rounds, rounds, point.Rounds)
			checkWelford(t, "Quality", &dist.Quality, quality, point.WinnerQuality)
			checkSketch(t, dist.RoundsQ, rounds)
		})
	}
}

// checkWelford compares streamed moments against the post-hoc sample and the
// point's Summary. Min/max/count are exact; the mean tolerates last-bit
// drift because the streamed fold adds observations in completion order.
func checkWelford(t *testing.T, label string, w *stats.Welford, sample []float64, summary stats.Summary) {
	t.Helper()
	if w.N() != len(sample) || w.N() != summary.N {
		t.Errorf("%s: streamed N = %d, sample has %d, summary has %d", label, w.N(), len(sample), summary.N)
		return
	}
	if len(sample) == 0 {
		return
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if w.Min() != sorted[0] || w.Max() != sorted[len(sorted)-1] {
		t.Errorf("%s: streamed min/max = %v/%v, want %v/%v", label, w.Min(), w.Max(), sorted[0], sorted[len(sorted)-1])
	}
	if d := math.Abs(w.Mean() - summary.Mean); d > 1e-9 {
		t.Errorf("%s: streamed mean %v vs summary mean %v (|Δ| = %g)", label, w.Mean(), summary.Mean, d)
	}
}

// checkSketch asserts every sketched quantile is within the sketch's
// advertised relative accuracy of the exact closest-rank sample value.
func checkSketch(t *testing.T, sk *stats.QuantileSketch, sample []float64) {
	t.Helper()
	if sk.N() != uint64(len(sample)) {
		t.Errorf("sketch N = %d, want %d", sk.N(), len(sample))
		return
	}
	if len(sample) == 0 {
		return
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		exact := sorted[int(q*float64(len(sorted)-1))] // the sketch's closest-rank convention
		got := sk.Quantile(q)
		if tol := sk.Alpha()*math.Abs(exact) + 1e-9; math.Abs(got-exact) > tol {
			t.Errorf("q=%.2f: sketch %v, exact %v (tolerance %g)", q, got, exact, tol)
		}
	}
}

// TestMeasureConvergenceStreamedScalarFoldMatchesBatchFold runs the same cell
// through both folds — ring-streamed from the batch lanes, and folded from
// the scalar loop's results — and requires identical distributions: the
// observation multisets are equal, so the integer-count sketch must be
// bucket-identical and every quantile must agree exactly.
func TestMeasureConvergenceStreamedScalarFoldMatchesBatchFold(t *testing.T) {
	const (
		reps = 16
		tag  = "streamed-fold"
	)
	env, err := workload.Binary(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{N: 64, Env: env, MaxRounds: 4000}

	pointB, distB, err := MeasureConvergenceStreamed(algo.Simple{}, cfg, reps, tag)
	if err != nil {
		t.Fatal(err)
	}
	if !distB.Streamed {
		t.Fatal("batch path did not stream")
	}

	SetBatchEngine(false)
	defer SetBatchEngine(true)
	pointS, distS, err := MeasureConvergenceStreamed(algo.Simple{}, cfg, reps, tag)
	if err != nil {
		t.Fatal(err)
	}
	if distS.Streamed {
		t.Fatal("scalar fallback claims to have streamed")
	}

	if !reflect.DeepEqual(pointB, pointS) {
		t.Fatalf("points diverge across folds:\nbatch:  %+v\nscalar: %+v", pointB, pointS)
	}
	if pointB.Solved == 0 {
		t.Fatal("cell solved no replicates; the check is vacuous")
	}
	if distB.RoundsObserved != distS.RoundsObserved {
		t.Errorf("RoundsObserved: batch %d, scalar %d", distB.RoundsObserved, distS.RoundsObserved)
	}
	for _, w := range []struct {
		label         string
		batch, scalar *stats.Welford
		meanTol       float64
	}{
		{"Rounds", &distB.Rounds, &distS.Rounds, 1e-9},
		{"Quality", &distB.Quality, &distS.Quality, 1e-9},
	} {
		if w.batch.N() != w.scalar.N() || w.batch.Min() != w.scalar.Min() || w.batch.Max() != w.scalar.Max() {
			t.Errorf("%s: N/min/max diverge: batch (%d,%v,%v), scalar (%d,%v,%v)", w.label,
				w.batch.N(), w.batch.Min(), w.batch.Max(), w.scalar.N(), w.scalar.Min(), w.scalar.Max())
		}
		if d := math.Abs(w.batch.Mean() - w.scalar.Mean()); d > w.meanTol {
			t.Errorf("%s: means diverge beyond fold-order tolerance: %v vs %v", w.label, w.batch.Mean(), w.scalar.Mean())
		}
	}
	// Equal multisets → bucket-identical sketches → exactly equal quantiles.
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
		if b, s := distB.RoundsQ.Quantile(q), distS.RoundsQ.Quantile(q); b != s {
			t.Errorf("q=%.2f: batch sketch %v, scalar sketch %v", q, b, s)
		}
	}
}

// TestMeasureConvergenceStreamedFallback exercises the batch-ineligible
// branch: a custom matcher type forces the scalar path (same idiom as the
// batch equivalence tests), and the streamed API must still produce a full
// measurement with Streamed reporting the fallback.
func TestMeasureConvergenceStreamedFallback(t *testing.T) {
	env, err := workload.Binary(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{
		N:          64,
		Env:        env,
		NewMatcher: func() sim.Matcher { return &fallbackMatcher{} },
	}
	if _, ok, _ := core.CompileForBatch(algo.Simple{}, cfg); ok {
		t.Fatal("a custom-matcher config should have no batch path")
	}
	want, err := MeasureConvergence(algo.Simple{}, cfg, 8, "streamed-fallback")
	if err != nil {
		t.Fatal(err)
	}
	point, dist, err := MeasureConvergenceStreamed(algo.Simple{}, cfg, 8, "streamed-fallback")
	if err != nil {
		t.Fatal(err)
	}
	if dist.Streamed {
		t.Error("batch-ineligible cell claims to have streamed")
	}
	if !reflect.DeepEqual(point, want) {
		t.Fatalf("fallback point diverged:\nstreamed: %+v\nplain:    %+v", point, want)
	}
	if dist.Rounds.N() != point.Solved {
		t.Errorf("distribution folded %d solved reps, point has %d", dist.Rounds.N(), point.Solved)
	}
	if point.Solved == 0 {
		t.Fatal("cell solved no replicates; the check is vacuous")
	}
}

// repTrace reassembles one replicate's streamed rows; mutated only on the
// collector goroutine, read after Close.
type repTrace struct {
	rounds  []int
	pops    [][]int
	commits [][]int
	end     []int32
}

// traceSink collects streamed records per replicate for the cross-engine
// per-round comparison.
type traceSink struct {
	mu   sync.Mutex
	k    int
	reps map[int32]*repTrace
}

func (s *traceSink) Record(_ int, rep, round int32, row []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.reps[rep]
	if rt == nil {
		rt = &repTrace{}
		s.reps[rep] = rt
	}
	if round == sim.StreamEndRound {
		rt.end = append([]int32(nil), row[:4]...)
		return
	}
	base := s.k + 1
	pops := make([]int, base)
	commits := make([]int, base)
	for i := 0; i < base; i++ {
		pops[i] = int(row[i])
		commits[i] = int(row[base+i])
	}
	rt.rounds = append(rt.rounds, int(round))
	rt.pops = append(rt.pops, pops)
	rt.commits = append(rt.commits, commits)
}

// TestStreamedRecordsMatchScalarTraces is the strongest cross-layer pin: the
// per-round records streamed out of the batch lanes must equal, round for
// round, the trace core.RunTraced records on the scalar engine for the same
// (algorithm, config, seed) — populations and commitment census both.
func TestStreamedRecordsMatchScalarTraces(t *testing.T) {
	seeds := []uint64{11, 23, 58, 91}
	for _, tc := range streamedGrid(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.RunConfig{N: 96, Env: tc.env, MaxRounds: 4000}
			k := tc.env.K()

			sink := &traceSink{k: k, reps: map[int32]*repTrace{}}
			coll, err := trace.NewCollector(sim.StreamRowWidth(k), 64, sink)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := sim.NewStreamObserver(coll, k)
			if err != nil {
				t.Fatal(err)
			}
			_, ok, err := core.RunBatchObserved(tc.algo, cfg, seeds, obs)
			if err != nil || !ok {
				t.Fatalf("observed sweep: ok=%v err=%v", ok, err)
			}
			coll.Close()

			for rep, seed := range seeds {
				tr := trace.New(k)
				repCfg := cfg
				repCfg.Seed = seed
				repCfg.Trace = tr
				res, err := core.RunTraced(tc.algo, repCfg)
				if err != nil {
					t.Fatalf("rep %d: RunTraced: %v", rep, err)
				}
				rt := sink.reps[int32(rep)]
				if rt == nil {
					t.Fatalf("rep %d: no streamed records", rep)
				}
				scalar := tr.Rounds()
				if len(rt.rounds) != len(scalar) {
					t.Fatalf("rep %d: streamed %d rounds, scalar trace has %d", rep, len(rt.rounds), len(scalar))
				}
				for i, rec := range scalar {
					if rt.rounds[i] != rec.Round {
						t.Fatalf("rep %d record %d: streamed round %d, scalar %d", rep, i, rt.rounds[i], rec.Round)
					}
					if !reflect.DeepEqual(rt.pops[i], rec.Populations) {
						t.Fatalf("rep %d round %d: populations diverge: streamed %v, scalar %v", rep, rec.Round, rt.pops[i], rec.Populations)
					}
					if !reflect.DeepEqual(rt.commits[i], rec.Commitments) {
						t.Fatalf("rep %d round %d: commitments diverge: streamed %v, scalar %v", rep, rec.Round, rt.commits[i], rec.Commitments)
					}
				}
				if rt.end == nil {
					t.Fatalf("rep %d: missing end record", rep)
				}
				solved, rounds, winner, _ := sim.DecodeStreamEnd(rt.end)
				if solved != res.Solved || rounds != res.Rounds || (solved && winner != res.Winner) {
					t.Fatalf("rep %d: streamed end (%v,%d,%d) != scalar result (%v,%d,%d)",
						rep, solved, rounds, winner, res.Solved, res.Rounds, res.Winner)
				}
				if len(scalar) == 0 {
					t.Fatalf("rep %d: scalar trace empty; the check is vacuous", rep)
				}
			}
		})
	}
}
