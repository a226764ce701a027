package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/workload"
)

func TestMeasureConvergence(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1})
	pt, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 96, Env: env}, 8, "test-e")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Reps != 8 || pt.Solved != 8 || pt.SuccessRate != 1 {
		t.Fatalf("point = %+v", pt)
	}
	if pt.Rounds.Mean <= 0 || pt.Rounds.N != 8 {
		t.Fatalf("rounds summary = %+v", pt.Rounds)
	}
	if pt.WinnerQuality.Mean != 1 {
		t.Fatalf("winner quality = %v", pt.WinnerQuality.Mean)
	}
}

func TestMeasureConvergenceDeterministic(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 1})
	a, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 64, Env: env}, 4, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 64, Env: env}, 4, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds.Mean != b.Rounds.Mean {
		t.Fatalf("same tag diverged: %v vs %v", a.Rounds.Mean, b.Rounds.Mean)
	}
}

func TestMeasureConvergenceValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := MeasureConvergence(nil, core.RunConfig{N: 4, Env: env}, 2, "x"); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 4, Env: env}, 0, "x"); err == nil {
		t.Fatal("zero reps accepted")
	}
}

func TestSweepAndFits(t *testing.T) {
	t.Parallel()
	grid := workload.Grid{Ns: []int{64, 256}, Ks: []int{2, 4}, Tag: "sweep-test"}
	points, err := Sweep(algo.Simple{}, grid, nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	fit, err := FitRoundsVsKLogN(points)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("k·log n fit slope %v, want positive", fit.Slope)
	}
	// Restrict to k=2 and fit against log n.
	var k2 []ConvergencePoint
	for _, p := range points {
		if p.K == 2 {
			k2 = append(k2, p)
		}
	}
	logFit, err := FitRoundsVsLogN(k2)
	if err != nil {
		t.Fatal(err)
	}
	if logFit.Slope <= 0 {
		t.Fatalf("log n fit slope %v, want positive", logFit.Slope)
	}
	out := Table("sweep", points)
	if !strings.Contains(out, "simple") || !strings.Contains(out, "success") {
		t.Fatalf("table rendering:\n%s", out)
	}
}

func TestMeasureRecruitSuccessLemma21(t *testing.T) {
	t.Parallel()
	m := &sim.AlgorithmOneMatcher{}
	for _, pool := range []int{2, 4, 32, 256} {
		pt, err := MeasureRecruitSuccess(m, pool, 1.0, 4000, 11)
		if err != nil {
			t.Fatal(err)
		}
		if pt.WilsonLo < 1.0/16 {
			t.Fatalf("pool %d: Wilson lower bound %.4f below Lemma 2.1's 1/16", pool, pt.WilsonLo)
		}
	}
	if _, err := MeasureRecruitSuccess(m, 0, 1, 10, 1); err == nil {
		t.Fatal("pool 0 accepted")
	}
	if _, err := MeasureRecruitSuccess(m, 2, 1, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestMeasureIgnorantPersistenceLemma31(t *testing.T) {
	t.Parallel()
	pt, err := MeasureIgnorantPersistence(2048, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MinStayRate < 0.25 {
		t.Fatalf("min stay rate %.4f below Lemma 3.1's 1/4", pt.MinStayRate)
	}
	if pt.Rounds <= 0 {
		t.Fatalf("no rounds measured: %+v", pt)
	}
	if _, err := MeasureIgnorantPersistence(2, 1, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestMeasureNestDeltaLemmas41And42(t *testing.T) {
	t.Parallel()
	m := &sim.AlgorithmOneMatcher{}
	// Two equal competing nests: symmetry (Lemma 4.1) and drop-out
	// probability >= 1/66 (Lemma 4.2).
	pt, err := MeasureNestDelta(m, []int{64, 64}, 20000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if pt.PNeg < 1.0/66 {
		t.Fatalf("P[Y<0] = %.4f below Lemma 4.2's 1/66", pt.PNeg)
	}
	if diff := pt.PNeg - pt.PPos; diff > 0.02 || diff < -0.02 {
		t.Fatalf("Lemma 4.1 symmetry violated: P[Y<0]=%.4f vs P[Y>0]=%.4f", pt.PNeg, pt.PPos)
	}
	// Asymmetric nests keep the symmetry property per Lemma 4.1.
	pt, err = MeasureNestDelta(m, []int{32, 96}, 20000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if diff := pt.PNeg - pt.PPos; diff > 0.02 || diff < -0.02 {
		t.Fatalf("asymmetric symmetry violated: %.4f vs %.4f", pt.PNeg, pt.PPos)
	}
	if _, err := MeasureNestDelta(m, nil, 10, 1); err == nil {
		t.Fatal("no nests accepted")
	}
	if _, err := MeasureNestDelta(m, []int{0}, 10, 1); err == nil {
		t.Fatal("empty nest accepted")
	}
}

func TestMeasureInitialGapLemma54(t *testing.T) {
	t.Parallel()
	pt, err := MeasureInitialGap(256, 4, 20000, 19)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MeanGap < pt.BoundMin {
		t.Fatalf("E[ε] = %v below Lemma 5.4's bound %v", pt.MeanGap, pt.BoundMin)
	}
	// The proof's core combinatorial fact: ties happen with probability < 2/3.
	if pt.TieRate >= 2.0/3 {
		t.Fatalf("tie rate %.4f not below 2/3", pt.TieRate)
	}
	if _, err := MeasureInitialGap(1, 2, 10, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestMeasureExtinctionLemmas58And59(t *testing.T) {
	t.Parallel()
	// d=8 (rather than the paper's 64) raises the threshold so small test
	// runs still produce crossings to grade.
	pt, err := MeasureExtinction(256, 4, 4, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Crossings == 0 {
		t.Fatal("no threshold crossings observed; experiment mis-sized")
	}
	if pt.Recovered > 0 {
		t.Fatalf("%d sub-threshold nests won the run (Lemma 5.9 violated)", pt.Recovered)
	}
	if pt.Extinct == 0 {
		t.Fatal("no extinctions recorded")
	}
	if pt.MeanLinger > float64(pt.BudgetRounds) {
		t.Fatalf("mean linger %.1f exceeds the O(k log n) budget %d", pt.MeanLinger, pt.BudgetRounds)
	}
	if _, err := MeasureExtinction(0, 1, 1, 1, 1); err == nil {
		t.Fatal("invalid parameters accepted")
	}
}

// TestParallelRows pins the helper's contract: every result at its own
// index, and the error of the lowest failing index however the workers
// interleave.
func TestParallelRows(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 7, 100} {
		got, err := parallelRows(n, func(i int) (int, error) { return i * i, nil })
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: %d results, err %v", n, len(got), err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("n=%d: result %d = %d, want %d", n, i, v, i*i)
			}
		}
	}
	errBad := errors.New("bad row")
	for trial := 0; trial < 20; trial++ {
		_, err := parallelRows(50, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("row %d: %w", i, errBad)
			}
			return i, nil
		})
		if !errors.Is(err, errBad) || err.Error() != "row 3: bad row" {
			t.Fatalf("error = %v, want row 3's", err)
		}
	}
}
