package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/async"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// Scale selects experiment sizing: Small finishes in seconds (CI and
// benchmarks), Full is the EXPERIMENTS.md configuration.
type Scale int

// The two experiment scales.
const (
	ScaleSmall Scale = iota + 1
	ScaleFull
)

// Report is a rendered experiment: what the paper claims, what we measured,
// and whether the claimed shape held.
type Report struct {
	ID       string
	Title    string
	Claim    string
	Tables   []string
	Findings []string
	Pass     bool
}

// String renders the report as the block format used in EXPERIMENTS.md.
func (r Report) String() string {
	var b strings.Builder
	status := "SHAPE HOLDS"
	if !r.Pass {
		status = "SHAPE VIOLATED"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "paper claim: %s\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t)
	}
	if len(r.Findings) > 0 {
		b.WriteByte('\n')
		for _, f := range r.Findings {
			fmt.Fprintf(&b, "measured: %s\n", f)
		}
	}
	return b.String()
}

// runner is one experiment implementation.
type runner func(Scale) (Report, error)

// suite maps experiment ids to implementations, in report order.
var suite = []struct {
	id string
	fn runner
}{
	{"E1", runE1}, {"E2", runE2}, {"E3", runE3}, {"E4", runE4},
	{"E5", runE5}, {"E6", runE6}, {"E7", runE7}, {"E8", runE8},
	{"E9", runE9}, {"E10", runE10}, {"E11", runE11}, {"E12", runE12},
	{"E13", runE13}, {"E14", runE14}, {"E15", runE15}, {"E16", runE16},
	{"E17", runE17}, {"E18", runE18}, {"E19", runE19}, {"E20", runE20},
	{"E21", runE21}, {"E22", runE22}, {"E23", runE23}, {"E24", runE24},
	{"E25", runE25}, {"E26", runE26}, {"E27", runE27},
}

// IDs returns the experiment identifiers in canonical order.
func IDs() []string {
	out := make([]string, len(suite))
	for i, e := range suite {
		out[i] = e.id
	}
	return out
}

// RunExperiment executes one experiment by id at the given scale.
func RunExperiment(id string, scale Scale) (Report, error) {
	if scale != ScaleSmall && scale != ScaleFull {
		return Report{}, fmt.Errorf("experiment: invalid scale %d", scale)
	}
	for _, e := range suite {
		if strings.EqualFold(e.id, id) {
			return e.fn(scale)
		}
	}
	return Report{}, fmt.Errorf("experiment: unknown experiment %q (have %v)", id, IDs())
}

// pick returns small at ScaleSmall and full otherwise.
func pick[T any](scale Scale, small, full T) T {
	if scale == ScaleSmall {
		return small
	}
	return full
}

// --- E1: Lemma 2.1 — recruiter success probability >= 1/16 ---------------

func runE1(scale Scale) (Report, error) {
	pools := pick(scale, []int{2, 3, 8, 64, 512}, []int{2, 3, 8, 64, 512, 4096})
	trials := pick(scale, 4000, 20000)
	rep := Report{
		ID:    "E1",
		Title: "Recruitment success probability",
		Claim: "Lemma 2.1: an active recruiter with c(0,r) >= 2 succeeds w.p. >= 1/16 = 0.0625",
		Pass:  true,
	}
	fracs := []float64{1.0, 0.5}
	pts, err := parallelRows(len(pools)*len(fracs), func(i int) (RecruitSuccessPoint, error) {
		pool, frac := pools[i/len(fracs)], fracs[i%len(fracs)]
		return MeasureRecruitSuccess(&sim.AlgorithmOneMatcher{}, pool, frac, trials,
			workload.SeedFor("E1", pool, int(frac*100), 0))
	})
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "pool", "activeFrac", "trials", "successRate", "wilsonLo", ">=1/16")
	minRate := 1.0
	for _, pt := range pts {
		ok := pt.WilsonLo >= 1.0/16
		if !ok {
			rep.Pass = false
		}
		if pt.SuccessRate < minRate {
			minRate = pt.SuccessRate
		}
		tb.AddRow(fmt.Sprintf("%d", pt.PoolSize), fmt.Sprintf("%.1f", pt.ActiveFraction),
			fmt.Sprintf("%d", pt.Trials), fmt.Sprintf("%.4f", pt.SuccessRate),
			fmt.Sprintf("%.4f", pt.WilsonLo), fmt.Sprintf("%v", ok))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("minimum success rate %.4f, comfortably above the 1/16 bound", minRate))
	return rep, nil
}

// --- E2: Lemma 3.1 — ignorant persistence >= 1/4 --------------------------

func runE2(scale Scale) (Report, error) {
	ns := pick(scale, []int{1 << 10, 1 << 12}, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16})
	rep := Report{
		ID:    "E2",
		Title: "Ignorant-ant persistence",
		Claim: "Lemma 3.1: an ignorant ant stays ignorant through a round w.p. >= 1/4",
		Pass:  true,
	}
	tb := stats.NewTable("", "n", "spreadRounds", "minStayRate", "meanStayRate", ">=1/4")
	for _, n := range ns {
		pt, err := MeasureIgnorantPersistence(n, workload.SeedFor("E2", n, 0, 0), 32)
		if err != nil {
			return Report{}, err
		}
		ok := pt.MinStayRate >= 0.25
		if !ok {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", pt.Rounds),
			fmt.Sprintf("%.4f", pt.MinStayRate), fmt.Sprintf("%.4f", pt.MeanStay),
			fmt.Sprintf("%v", ok))
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// --- E3: Theorem 3.2 — Ω(log n) lower bound -------------------------------

func runE3(scale Scale) (Report, error) {
	exps := pick(scale, []int{8, 10, 12, 14}, []int{8, 10, 12, 14, 16, 18})
	reps := pick(scale, 6, 20)
	rep := Report{
		ID:    "E3",
		Title: "Lower-bound scaling of rumor spreading",
		Claim: "Theorem 3.2: informing all n ants takes Ω(log n) rounds even for the fastest strategy",
	}
	env, err := workload.SingleGood(2)
	if err != nil {
		return Report{}, err
	}
	var points []ConvergencePoint
	for _, e := range exps {
		n := 1 << uint(e)
		pt, err := MeasureConvergence(algo.Spreader{SearchAll: true},
			core.RunConfig{N: n, Env: env}, reps, "E3")
		if err != nil {
			return Report{}, err
		}
		points = append(points, pt)
	}
	rep.Tables = append(rep.Tables, Table("", points))
	fit, err := FitRoundsVsLogN(points)
	if err != nil {
		return Report{}, err
	}
	rep.Findings = append(rep.Findings, fmt.Sprintf("rounds vs log2(n): %s", fit))
	// Shape: strongly linear in log n with positive slope (each doubling of n
	// adds a roughly constant number of rounds).
	rep.Pass = fit.Slope > 0 && fit.R2 >= 0.85
	return rep, nil
}

// --- E4: Lemma 4.1 — Y symmetric around 0 ---------------------------------

func runE4(scale Scale) (Report, error) {
	trials := pick(scale, 20000, 100000)
	rep := Report{
		ID:    "E4",
		Title: "Population-delta symmetry",
		Claim: "Lemma 4.1: a competing nest's one-round delta Y satisfies P[Y<0] = P[Y>0]",
		Pass:  true,
	}
	pts, err := measureNestDeltas("E4", [][]int{{64, 64}, {32, 96}, {16, 48, 64}, {100, 20}}, trials)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "nestSizes", "P[Y<0]", "P[Y=0]", "P[Y>0]", "|P<0 - P>0|")
	for _, pt := range pts {
		diff := math.Abs(pt.PNeg - pt.PPos)
		if diff > 0.02 {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%v", pt.NestSizes), fmt.Sprintf("%.4f", pt.PNeg),
			fmt.Sprintf("%.4f", pt.PZero), fmt.Sprintf("%.4f", pt.PPos),
			fmt.Sprintf("%.4f", diff))
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// --- E5: Lemma 4.2 — drop-out probability >= 1/66 --------------------------

func runE5(scale Scale) (Report, error) {
	trials := pick(scale, 20000, 100000)
	rep := Report{
		ID:    "E5",
		Title: "Nest drop-out probability",
		Claim: "Lemma 4.2: a competing nest with |C| < c(0,r) shrinks w.p. >= 1/66 ≈ 0.0152 per recruit round",
		Pass:  true,
	}
	pts, err := measureNestDeltas("E5", [][]int{{64, 64}, {32, 96}, {8, 120}, {16, 16, 16, 16}}, trials)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "nestSizes", "P[Y<0]", ">=1/66")
	for _, pt := range pts {
		ok := pt.PNeg >= 1.0/66
		if !ok {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%v", pt.NestSizes), fmt.Sprintf("%.4f", pt.PNeg), fmt.Sprintf("%v", ok))
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// measureNestDeltas runs one MeasureNestDelta row per nest-size list, in
// parallel, each with its own matcher and its tag-derived seed.
func measureNestDeltas(tag string, rows [][]int, trials int) ([]DeltaPoint, error) {
	return parallelRows(len(rows), func(i int) (DeltaPoint, error) {
		sizes := rows[i]
		return MeasureNestDelta(&sim.AlgorithmOneMatcher{}, sizes, trials,
			workload.SeedFor(tag, len(sizes), sizes[0], 0))
	})
}

// --- E6: Theorem 4.3 — Optimal is O(log n) ---------------------------------

func runE6(scale Scale) (Report, error) {
	grid := workload.Grid{
		Ns:  pick(scale, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384, 65536}),
		Ks:  pick(scale, []int{2, 4, 8}, []int{2, 4, 8, 16}),
		Tag: "E6",
	}
	reps := pick(scale, 5, 15)
	rep := Report{
		ID:    "E6",
		Title: "Algorithm 2 (Optimal) scaling",
		Claim: "Theorem 4.3: Algorithm 2 solves HouseHunting in O(log n) rounds w.h.p., independent of k",
	}
	points, err := Sweep(algo.Optimal{}, grid, nil, reps, 0)
	if err != nil {
		return Report{}, err
	}
	rep.Tables = append(rep.Tables, Table("", points))
	allSolved := true
	for _, p := range points {
		if p.SuccessRate < 1 {
			allSolved = false
		}
	}
	// Fit rounds against log2(n) at the smallest k only: pooling all k mixes
	// per-k intercepts and wrecks R² even when each k-slice is perfectly
	// logarithmic.
	minK := grid.Ks[0]
	var atMinK []ConvergencePoint
	for _, p := range points {
		if p.K == minK {
			atMinK = append(atMinK, p)
		}
	}
	fit, err := FitRoundsVsLogN(atMinK)
	if err != nil {
		return Report{}, err
	}
	// Rounds must not blow up with k at fixed n: compare k-extremes at max n.
	maxN := grid.Ns[len(grid.Ns)-1]
	var atMaxN []ConvergencePoint
	for _, p := range points {
		if p.N == maxN {
			atMaxN = append(atMaxN, p)
		}
	}
	sort.Slice(atMaxN, func(i, j int) bool { return atMaxN[i].K < atMaxN[j].K })
	kRatio := atMaxN[len(atMaxN)-1].Rounds.Mean / atMaxN[0].Rounds.Mean
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("rounds vs log2(n) at k=%d: %s", minK, fit),
		fmt.Sprintf("k-sensitivity at n=%d: rounds(k=%d)/rounds(k=%d) = %.2f (linear in k would be %.1f)",
			maxN, atMaxN[len(atMaxN)-1].K, atMaxN[0].K, kRatio,
			float64(atMaxN[len(atMaxN)-1].K)/float64(atMaxN[0].K)))
	rep.Pass = allSolved && fit.Slope > 0 && fit.R2 >= 0.85 &&
		kRatio < float64(atMaxN[len(atMaxN)-1].K)/float64(atMaxN[0].K)/2
	return rep, nil
}

// --- E7: Lemma 5.4 — initial gap expectation --------------------------------

func runE7(scale Scale) (Report, error) {
	trials := pick(scale, 20000, 100000)
	rep := Report{
		ID:    "E7",
		Title: "Initial population gap",
		Claim: "Lemma 5.4: after the search round, E[ε(i,j,1)] >= 1/(3(n-1)); ties occur w.p. < 2/3",
		Pass:  true,
	}
	nks := [][2]int{{64, 2}, {256, 4}, {1024, 8}, {4096, 16}}
	pts, err := parallelRows(len(nks), func(i int) (GapPoint, error) {
		n, k := nks[i][0], nks[i][1]
		return MeasureInitialGap(n, k, trials, workload.SeedFor("E7", n, k, 0))
	})
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "n", "k", "E[ε]", "bound", "tieRate")
	for _, pt := range pts {
		if pt.MeanGap < pt.BoundMin || pt.TieRate >= 2.0/3 {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%d", pt.N), fmt.Sprintf("%d", pt.K),
			fmt.Sprintf("%.5f", pt.MeanGap), fmt.Sprintf("%.5f", pt.BoundMin),
			fmt.Sprintf("%.4f", pt.TieRate))
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// --- E8: Lemmas 5.8/5.9 — small nests go extinct ----------------------------

func runE8(scale Scale) (Report, error) {
	runs := pick(scale, 4, 12)
	rep := Report{
		ID:    "E8",
		Title: "Small-nest extinction",
		Claim: "Lemmas 5.8/5.9: a nest below n/(dk) never recovers and dies within O(k log n) rounds",
		Pass:  true,
	}
	tb := stats.NewTable("", "n", "k", "crossings", "extinct", "recovered", "meanLinger", "budget")
	for _, nk := range [][2]int{{256, 4}, {512, 8}} {
		pt, err := MeasureExtinction(nk[0], nk[1], runs, 8, workload.SeedFor("E8", nk[0], nk[1], 0))
		if err != nil {
			return Report{}, err
		}
		if pt.Recovered > 0 || (pt.Extinct > 0 && pt.MeanLinger > float64(pt.BudgetRounds)) {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%d", nk[0]), fmt.Sprintf("%d", nk[1]),
			fmt.Sprintf("%d", pt.Crossings), fmt.Sprintf("%d", pt.Extinct),
			fmt.Sprintf("%d", pt.Recovered), fmt.Sprintf("%.1f", pt.MeanLinger),
			fmt.Sprintf("%d", pt.BudgetRounds))
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// --- E9: Theorem 5.11 — Simple is O(k log n) --------------------------------

func runE9(scale Scale) (Report, error) {
	grid := workload.Grid{
		Ns:  pick(scale, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384}),
		Ks:  pick(scale, []int{2, 8, 32}, []int{2, 4, 8, 16, 32}),
		Tag: "E9",
	}
	reps := pick(scale, 5, 15)
	rep := Report{
		ID:    "E9",
		Title: "Algorithm 3 (Simple) scaling",
		Claim: "Theorem 5.11: Algorithm 3 solves HouseHunting in O(k log n) rounds w.h.p.",
	}
	points, err := Sweep(algo.Simple{}, grid, nil, reps, 0)
	if err != nil {
		return Report{}, err
	}
	rep.Tables = append(rep.Tables, Table("", points))
	allSolved := true
	for _, p := range points {
		if p.SuccessRate < 1 {
			allSolved = false
		}
	}
	fit, err := FitRoundsVsKLogN(points)
	if err != nil {
		return Report{}, err
	}
	rep.Findings = append(rep.Findings, fmt.Sprintf("rounds vs k·log2(n): %s", fit))
	rep.Pass = allSolved && fit.Slope > 0 && fit.R2 >= 0.75
	return rep, nil
}

// --- E10: §6 adaptive speed-up ----------------------------------------------

func runE10(scale Scale) (Report, error) {
	n := pick(scale, 1024, 2048)
	ks := pick(scale, []int{2, 16, 32}, []int{2, 4, 8, 16, 32, 64})
	reps := pick(scale, 6, 15)
	rep := Report{
		ID:    "E10",
		Title: "Adaptive recruitment speed-up",
		Claim: "§6: boosting recruitment rates with the round number should beat O(k log n) for large k (at a ramp-up cost for small k)",
	}
	tb := stats.NewTable("", "k", "simple(rounds)", "adaptive(rounds)", "speedup")
	var speedupAtMaxK float64
	for _, k := range ks {
		env, err := workload.AllGood(k)
		if err != nil {
			return Report{}, err
		}
		si, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: n, Env: env}, reps, "E10-s")
		if err != nil {
			return Report{}, err
		}
		ad, err := MeasureConvergence(algo.Adaptive{}, core.RunConfig{N: n, Env: env}, reps, "E10-a")
		if err != nil {
			return Report{}, err
		}
		speedup := si.Rounds.Mean / ad.Rounds.Mean
		if k == ks[len(ks)-1] {
			speedupAtMaxK = speedup
		}
		tb.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.1f", si.Rounds.Mean),
			fmt.Sprintf("%.1f", ad.Rounds.Mean), fmt.Sprintf("%.2fx", speedup))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("speed-up at k=%d: %.2fx (crossover vs Simple sits near k ≈ 16)", ks[len(ks)-1], speedupAtMaxK))
	rep.Pass = speedupAtMaxK > 1.15
	return rep, nil
}

// --- E11: §6 non-binary qualities --------------------------------------------

func runE11(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 12, 40)
	rep := Report{
		ID:    "E11",
		Title: "Quality-weighted selection",
		Claim: "§6: folding quality into the recruitment probability converges to a high-quality nest",
	}
	env, err := workload.QualityLadder(4, 0.2, 0.9)
	if err != nil {
		return Report{}, err
	}
	pt, err := MeasureConvergence(algo.QualityAware{}, core.RunConfig{N: n, Env: env}, reps, "E11")
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "n", "k", "reps", "success", "meanWinnerQ", "bestQ")
	tb.AddRow(fmt.Sprintf("%d", n), "4", fmt.Sprintf("%d", reps),
		fmt.Sprintf("%.3f", pt.SuccessRate), fmt.Sprintf("%.3f", pt.WinnerQuality.Mean), "0.90")
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("mean winner quality %.3f of max 0.90", pt.WinnerQuality.Mean))
	rep.Pass = pt.SuccessRate == 1 && pt.WinnerQuality.Mean >= 0.7
	return rep, nil
}

// --- E12: §6 noisy perception -------------------------------------------------

func runE12(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 6, 20)
	sigmas := []float64{0, 0.1, 0.2, 0.4, 0.8}
	rep := Report{
		ID:    "E12",
		Title: "Noise resilience",
		Claim: "§6: Algorithm 3 stays correct under unbiased count noise, with graceful slowdown",
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "sigma", "success", "rounds(mean)", "slowdown")
	var base float64
	pass := true
	for _, sigma := range sigmas {
		a := algo.Noisy{}
		if sigma > 0 {
			a = algo.Noisy{Counter: nestRelative(sigma)}
		}
		pt, err := MeasureConvergence(a, core.RunConfig{N: n, Env: env, MaxRounds: 40000},
			reps, fmt.Sprintf("E12-%.1f", sigma))
		if err != nil {
			return Report{}, err
		}
		if sigma == 0 {
			base = pt.Rounds.Mean
		}
		slowdown := pt.Rounds.Mean / base
		if sigma <= 0.4 && pt.SuccessRate < 1 {
			pass = false
		}
		tb.AddRow(fmt.Sprintf("%.1f", sigma), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.2fx", slowdown))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Pass = pass
	return rep, nil
}

// --- E13: §6 fault tolerance ----------------------------------------------------

func runE13(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 6, 20)
	rep := Report{
		ID:    "E13",
		Title: "Crash and Byzantine fault tolerance",
		Claim: "§6: a small number of crashed or malicious ants should not affect performance",
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "crashFrac", "byzFrac", "supermajorityRate", "meanGoodFrac")
	type cell struct{ crash, byz float64 }
	cells := []cell{{0, 0}, {0.05, 0}, {0.15, 0}, {0.3, 0}, {0, 0.02}, {0, 0.05}, {0, 0.1}}
	pass := true
	for _, c := range cells {
		super, goodFrac, err := measureFaultCell(n, env, c.crash, c.byz, reps)
		if err != nil {
			return Report{}, err
		}
		if c.crash <= 0.15 && c.byz <= 0.05 && super < 0.75 {
			pass = false
		}
		tb.AddRow(fmt.Sprintf("%.2f", c.crash), fmt.Sprintf("%.2f", c.byz),
			fmt.Sprintf("%.3f", super), fmt.Sprintf("%.3f", goodFrac))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Pass = pass
	return rep, nil
}

// measureFaultCell runs Simple under one fault configuration and reports the
// rate of runs reaching a 90% good-nest supermajority and the mean final
// good-nest commitment fraction.
func measureFaultCell(n int, env sim.Environment, crash, byz float64, reps int) (superRate, meanGoodFrac float64, err error) {
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000,
		Wrap: faults.Spec{CrashFraction: crash, ByzantineFraction: byz, CrashWindow: 50, Salt: 3001}}
	runs, _, err := runReps(algo.Simple{}, cfg, repSeeds(reps, "E13", int(crash*100)*1000+int(byz*100), n), nil)
	if err != nil {
		return 0, 0, err
	}
	super := 0
	var fracSum float64
	for _, res := range runs {
		best := 0
		for i := 1; i < len(res.FinalCensus.Committed); i++ {
			if env.Good(sim.NestID(i)) && res.FinalCensus.Committed[i] > best {
				best = res.FinalCensus.Committed[i]
			}
		}
		frac := 0.0
		if res.FinalCensus.Total > 0 {
			frac = float64(best) / float64(res.FinalCensus.Total)
		}
		fracSum += frac
		if frac >= 0.9 {
			super++
		}
	}
	return float64(super) / float64(reps), fracSum / float64(reps), nil
}

// --- E14: §6 asynchrony -----------------------------------------------------------

func runE14(scale Scale) (Report, error) {
	n := pick(scale, 128, 512)
	reps := pick(scale, 6, 20)
	rep := Report{
		ID:    "E14",
		Title: "Partial synchrony",
		Claim: "§6: Algorithm 3 tolerates clock jitter; Algorithm 2 relies heavily on synchrony",
	}
	env, err := workload.Binary(2, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "jitterP", "simple(success)", "simple(rounds)", "optimal(success)", "optimal(rounds)")
	pass := true
	var sBase, oBase float64
	for _, p := range []float64{0, 0.05, 0.15, 0.25} {
		sRate, sRounds, err := measureJitterCell(algo.Simple{}, n, env, p, reps, "E14-s")
		if err != nil {
			return Report{}, err
		}
		oRate, oRounds, err := measureJitterCell(algo.Optimal{}, n, env, p, reps, "E14-o")
		if err != nil {
			return Report{}, err
		}
		if p == 0 {
			sBase, oBase = sRounds, oRounds
		}
		if p <= 0.15 && sRate < 0.75 {
			pass = false
		}
		if p >= 0.15 && oRate > sRate {
			pass = false // the paper's fragility contrast must hold
		}
		tb.AddRow(fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.3f", sRate), fmt.Sprintf("%.1f", sRounds),
			fmt.Sprintf("%.3f", oRate), fmt.Sprintf("%.1f", oRounds))
		if p == 0.25 && sBase > 0 && oBase > 0 {
			rep.Findings = append(rep.Findings, fmt.Sprintf(
				"slowdown at jitter 0.25: simple %.2fx, optimal %.2fx",
				sRounds/sBase, oRounds/oBase))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Pass = pass
	return rep, nil
}

// measureJitterCell runs one algorithm under jitter p and returns its solve
// rate and mean rounds over solved runs.
func measureJitterCell(a core.Algorithm, n int, env sim.Environment, p float64, reps int, tag string) (rate, meanRounds float64, err error) {
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 6000}
	if p > 0 {
		cfg.Wrap = async.Plan{HoldP: p, MaxDelay: 2, Salt: 4001}
	}
	runs, _, err := runReps(a, cfg, repSeeds(reps, tag, int(p*100), n), nil)
	if err != nil {
		return 0, 0, err
	}
	solved := 0
	roundsSum := 0.0
	for _, res := range runs {
		if res.Solved {
			solved++
			roundsSum += float64(res.Rounds)
		}
	}
	if solved > 0 {
		meanRounds = roundsSum / float64(solved)
	}
	return float64(solved) / float64(reps), meanRounds, nil
}

// --- E15: head-to-head comparison ---------------------------------------------------

func runE15(scale Scale) (Report, error) {
	grid := workload.Grid{
		Ns:  pick(scale, []int{1024}, []int{1024, 16384}),
		Ks:  pick(scale, []int{2, 8, 32}, []int{2, 4, 8, 16, 32}),
		Tag: "E15",
	}
	reps := pick(scale, 6, 15)
	rep := Report{
		ID:    "E15",
		Title: "Head-to-head: Optimal vs Simple vs Adaptive",
		Claim: "Simple wins only at small k; Optimal and Adaptive beat Simple at large k (crossover near k ≈ 8-16)",
	}
	var all []ConvergencePoint
	for _, a := range []core.Algorithm{algo.Optimal{}, algo.Simple{}, algo.Adaptive{}} {
		pts, err := Sweep(a, grid, nil, reps, 0)
		if err != nil {
			return Report{}, err
		}
		all = append(all, pts...)
	}
	rep.Tables = append(rep.Tables, Table("", all))
	// Shape: Simple fastest at the smallest k; both Optimal and Adaptive
	// strictly beat Simple at the largest k (the crossover the paper's
	// O(log n) vs O(k log n) bounds predict).
	maxK := grid.Ks[len(grid.Ks)-1]
	minK := grid.Ks[0]
	maxN := grid.Ns[len(grid.Ns)-1]
	atMaxK := map[string]float64{}
	atMinK := map[string]float64{}
	for _, p := range all {
		if p.N != maxN {
			continue
		}
		if p.K == maxK {
			atMaxK[p.Algorithm] = p.Rounds.Mean
		}
		if p.K == minK {
			atMinK[p.Algorithm] = p.Rounds.Mean
		}
	}
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("at n=%d k=%d: optimal %.1f, adaptive %.1f, simple %.1f rounds",
			maxN, maxK, atMaxK["optimal"], atMaxK["adaptive"], atMaxK["simple"]),
		fmt.Sprintf("at n=%d k=%d: simple %.1f is fastest (optimal %.1f, adaptive %.1f)",
			maxN, minK, atMinK["simple"], atMinK["optimal"], atMinK["adaptive"]))
	rep.Pass = atMaxK["optimal"] < atMaxK["simple"] &&
		atMaxK["adaptive"] < atMaxK["simple"] &&
		atMinK["simple"] < atMinK["optimal"] &&
		atMinK["simple"] < atMinK["adaptive"]
	return rep, nil
}

// --- E16: pairing-model ablation -----------------------------------------------------

func runE16(scale Scale) (Report, error) {
	n := pick(scale, 512, 2048)
	reps := pick(scale, 5, 15)
	rep := Report{
		ID:    "E16",
		Title: "Recruitment pairing ablation",
		Claim: "§2 remark: the results should hold under other natural random pairing models",
		Pass:  true,
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "matcher", "algorithm", "success", "rounds(mean)")
	for _, m := range sim.Matchers() {
		for _, a := range []core.Algorithm{algo.Simple{}, algo.Optimal{}} {
			name := m.Name()
			pt, err := MeasureConvergence(a, core.RunConfig{
				N: n, Env: env, NewMatcher: func() sim.Matcher { return matcherFactory(name) },
			}, reps, "E16-"+name)
			if err != nil {
				return Report{}, err
			}
			if pt.SuccessRate < 1 {
				rep.Pass = false
			}
			tb.AddRow(m.Name(), a.Name(), fmt.Sprintf("%.3f", pt.SuccessRate),
				fmt.Sprintf("%.1f", pt.Rounds.Mean))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	return rep, nil
}

// matcherFactory returns a fresh matcher instance by name (matchers carry
// scratch state, so each engine needs its own).
func matcherFactory(name string) sim.Matcher {
	switch name {
	case "simultaneous":
		return &sim.SimultaneousMatcher{}
	case "rendezvous":
		return &sim.RendezvousMatcher{}
	default:
		return &sim.AlgorithmOneMatcher{}
	}
}

// --- E17: literal vs repaired Algorithm 2 ---------------------------------------------

func runE17(scale Scale) (Report, error) {
	reps := pick(scale, 10, 40)
	rep := Report{
		ID:    "E17",
		Title: "Algorithm 2 pseudocode ablation (Case 3 count baseline)",
		Claim: "Reproduction finding: the literal pseudocode's stale Case 3 count can cascade into deadlock; re-baselining (as the paper's analysis assumes) repairs it",
	}
	tb := stats.NewTable("", "n", "k", "literal(success)", "repaired(success)")
	pass := true
	for _, nk := range [][2]int{{128, 2}, {512, 4}, {1024, 8}} {
		env, err := workload.AllGood(nk[1])
		if err != nil {
			return Report{}, err
		}
		lit, err := MeasureConvergence(algo.Optimal{Literal: true},
			core.RunConfig{N: nk[0], Env: env, MaxRounds: 4000}, reps, "E17-lit")
		if err != nil {
			return Report{}, err
		}
		fix, err := MeasureConvergence(algo.Optimal{},
			core.RunConfig{N: nk[0], Env: env, MaxRounds: 4000}, reps, "E17-fix")
		if err != nil {
			return Report{}, err
		}
		if fix.SuccessRate < 1 || fix.SuccessRate < lit.SuccessRate {
			pass = false
		}
		tb.AddRow(fmt.Sprintf("%d", nk[0]), fmt.Sprintf("%d", nk[1]),
			fmt.Sprintf("%.3f", lit.SuccessRate), fmt.Sprintf("%.3f", fix.SuccessRate))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Pass = pass
	return rep, nil
}

// --- E18: quorum + transport (speed-accuracy trade-off) ------------------------

func runE18(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 10, 30)
	rep := Report{
		ID:    "E18",
		Title: "Quorum thresholds and transport (the tunable decision dial)",
		Claim: "§1.1/§6, [24], [25]: quorum-gated transport finishes emigrations; the quorum is a speed dial — hair-trigger quorums stall in transport standoffs, over-cautious ones fail to decide — while collective accuracy stays robust to individual misjudgment",
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	noisy := nestFlip(0.15)
	tb := stats.NewTable("", "multiplier", "assessment", "success", "goodWinRate", "rounds(mean)")
	type cell struct {
		mult  float64
		rate  float64
		round float64
	}
	var noisyCells []cell
	for _, mult := range []float64{1.1, 1.5, 2.0, 3.0} {
		for _, noise := range []bool{false, true} {
			q := algo.Quorum{Multiplier: mult}
			label := "exact"
			if noise {
				q.Assessor = noisy
				label = "flip(0.15)"
			}
			runs, _, err := runReps(q, core.RunConfig{N: n, Env: env, MaxRounds: 4000},
				repSeeds(reps, "E18", int(mult*100), boolInt(noise)*1000+n), nil)
			if err != nil {
				return Report{}, err
			}
			goodWins, solved := 0, 0
			var roundsSum float64
			for _, res := range runs {
				if res.Solved {
					solved++
					roundsSum += float64(res.Rounds)
					if env.Good(res.Winner) {
						goodWins++
					}
				}
			}
			succ := float64(solved) / float64(reps)
			goodRate := 0.0
			meanRounds := 0.0
			if solved > 0 {
				goodRate = float64(goodWins) / float64(solved)
				meanRounds = roundsSum / float64(solved)
			}
			if noise {
				noisyCells = append(noisyCells, cell{mult: mult, rate: succ * goodRate, round: meanRounds})
			}
			tb.AddRow(fmt.Sprintf("%.1f", mult), label,
				fmt.Sprintf("%.3f", succ), fmt.Sprintf("%.3f", goodRate),
				fmt.Sprintf("%.1f", meanRounds))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	// Shapes: (a) the mid dial (2.0) is decisively faster than the
	// hair-trigger (1.1), whose premature transports stall in tugs-of-war;
	// (b) collective accuracy survives 15% individual misjudgment at every
	// setting (the group-rationality effect of the paper's [25]).
	var hair, mid cell
	for _, c := range noisyCells {
		switch c.mult {
		case 1.1:
			hair = c
		case 2.0:
			mid = c
		}
	}
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("noisy dial: %.1f rounds at multiplier 2.0 vs %.1f at hair-trigger 1.1", mid.round, hair.round),
		"collective choice stayed good despite 15% individual misjudgment (group rationality, paper ref [25])")
	accuracyOK := true
	for _, c := range noisyCells {
		if c.rate > 0 && c.rate < 0.9 {
			accuracyOK = false
		}
	}
	rep.Pass = mid.round < hair.round && accuracyOK
	return rep, nil
}

// boolInt converts a bool to 0/1 for seed derivation.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- E19: approximate knowledge of n -------------------------------------------

func runE19(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 6, 20)
	rep := Report{
		ID:    "E19",
		Title: "Approximate knowledge of the colony size",
		Claim: "§6: Algorithm 3 should survive ants knowing only an approximation of n",
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "delta", "success", "rounds(mean)", "slowdown")
	var base float64
	pass := true
	for _, delta := range []float64{0, 0.25, 0.5, 0.75} {
		pt, err := MeasureConvergence(algo.ApproxN{Delta: delta},
			core.RunConfig{N: n, Env: env, MaxRounds: 20000}, reps,
			fmt.Sprintf("E19-%.2f", delta))
		if err != nil {
			return Report{}, err
		}
		if delta == 0 {
			base = pt.Rounds.Mean
		}
		slowdown := pt.Rounds.Mean / base
		if delta <= 0.5 && pt.SuccessRate < 1 {
			pass = false
		}
		tb.AddRow(fmt.Sprintf("%.2f", delta), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.2fx", slowdown))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Pass = pass
	return rep, nil
}

// --- E20: the "with high probability" form ---------------------------------------

func runE20(scale Scale) (Report, error) {
	exps := pick(scale, []int{8, 10, 12}, []int{8, 10, 12, 14, 16})
	reps := pick(scale, 40, 100)
	rep := Report{
		ID:    "E20",
		Title: "Failure probability decays with n",
		Claim: "Theorems 3.2/4.3 hold 'with probability >= 1 - 1/n^c': at a fixed budget of C·log2(n) rounds, Algorithm 2's failure rate must vanish as n grows",
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	// C = 8 is calibrated against E6 (mean ≈ 7.1·log2 n at k=4): tight enough
	// that small colonies sometimes miss the deadline, loose enough that large
	// ones never do — which is exactly the w.h.p. shape.
	const budgetC = 8
	tb := stats.NewTable("", "n", "budget(rounds)", "reps", "failures", "failureRate")
	var firstRate, lastRate float64
	for i, e := range exps {
		n := 1 << uint(e)
		budget := budgetC * e
		runs, _, err := runReps(algo.Optimal{}, core.RunConfig{N: n, Env: env, MaxRounds: budget},
			repSeeds(reps, "E20", n, budget), nil)
		if err != nil {
			return Report{}, err
		}
		failures := 0
		for _, res := range runs {
			if !res.Solved {
				failures++
			}
		}
		rate := float64(failures) / float64(reps)
		if i == 0 {
			firstRate = rate
		}
		lastRate = rate
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", budget),
			fmt.Sprintf("%d", reps), fmt.Sprintf("%d", failures),
			fmt.Sprintf("%.3f", rate))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings, fmt.Sprintf(
		"failure rate fell from %.3f (n=%d) to %.3f (n=%d) at the same C·log n budget",
		firstRate, 1<<uint(exps[0]), lastRate, 1<<uint(exps[len(exps)-1])))
	rep.Pass = lastRate == 0 && firstRate >= lastRate
	return rep, nil
}

// --- E21: geometric decay of competing nests --------------------------------------

func runE21(scale Scale) (Report, error) {
	n := pick(scale, 1024, 4096)
	ks := pick(scale, []int{8, 16}, []int{8, 16, 32})
	runs := pick(scale, 8, 24)
	rep := Report{
		ID:    "E21",
		Title: "Competing nests decay geometrically (Algorithm 2's engine)",
		Claim: "Lemma 4.2 / Theorem 4.3: each competing nest drops out w.p. >= 1/66 per phase, so E[k_{p+1}] <= (65/66)·k_p and one nest remains after O(log k + log n) phases",
		Pass:  true,
	}
	tb := stats.NewTable("", "n", "k", "meanDecay/phase", "paperBound", "phasesToOne", "competing(by phase)")
	for _, k := range ks {
		pt, err := MeasureCompetingDecay(n, k, runs, workload.SeedFor("E21", n, k, 0))
		if err != nil {
			return Report{}, err
		}
		if pt.MeanDecay > 65.0/66 {
			rep.Pass = false
		}
		// Render the first few phase means compactly.
		series := ""
		for i, v := range pt.MeanCompeting {
			if i > 6 {
				series += "…"
				break
			}
			if i > 0 {
				series += " "
			}
			series += fmt.Sprintf("%.1f", v)
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", pt.MeanDecay), fmt.Sprintf("%.4f", 65.0/66),
			fmt.Sprintf("%.1f", pt.PhasesToOne), series)
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		"measured per-phase survival is far below the paper's conservative 65/66 bound")
	return rep, nil
}

// --- E22: adversary series — crash fraction vs convergence time -------------------

func runE22(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	rep := Report{
		ID:    "E22",
		Title: "Crash fraction vs convergence time (fault lanes)",
		Claim: "§6: crash faults \"should not affect the overall populations of recruiting ants and the algorithm's performance\" — convergence survives and degrades gracefully as the crash fraction grows",
		Pass:  true,
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "crashFrac", "successRate", "meanRounds", "p95Rounds")
	baseline := 0.0
	for _, crash := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
		if crash > 0 {
			cfg.Wrap = faults.Spec{CrashFraction: crash, CrashWindow: 50, Salt: 5001}
		}
		pt, err := MeasureConvergence(algo.Simple{}, cfg, reps, fmt.Sprintf("E22-%.2f", crash))
		if err != nil {
			return Report{}, err
		}
		if crash == 0 {
			baseline = pt.Rounds.Mean
		}
		if crash <= 0.15 && pt.SuccessRate < 0.75 {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%.2f", crash), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.1f", pt.Rounds.P95))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("fault-free baseline %.1f mean rounds; every faulted cell runs on the batch engine's crash lanes", baseline))
	return rep, nil
}

// --- E23: adversary series — corrupt minority vs best-of-k accuracy ---------------

func runE23(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	rep := Report{
		ID:    "E23",
		Title: "Corrupt minority vs best-of-k accuracy",
		Claim: "§6: a small malicious minority luring toward a bad nest should not stop the colony from selecting the best candidate",
		Pass:  true,
	}
	// Graded qualities with a zero-quality nest for the adversary to latch:
	// the honest colony should still pick the 0.9 site.
	env := sim.MustEnvironment([]float64{0.2, 0.9, 0.4, 0})
	best := 0.9
	tb := stats.NewTable("", "byzFrac", "successRate", "meanWinnerQ", "minWinnerQ")
	for _, byz := range []float64{0, 0.01, 0.02, 0.05, 0.1} {
		cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
		if byz > 0 {
			cfg.Wrap = faults.Spec{ByzantineFraction: byz, Salt: 5002}
		}
		pt, err := MeasureConvergence(algo.QualityAware{}, cfg, reps, fmt.Sprintf("E23-%.2f", byz))
		if err != nil {
			return Report{}, err
		}
		// Accuracy survives a small minority (≤2%); past that the lurers
		// sustain a standing bad-nest population that defeats unanimity — a
		// measured saturation transition, not a pass/fail concern.
		if byz <= 0.02 && (pt.SuccessRate < 0.75 || pt.WinnerQuality.Mean < 0.9*best) {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%.2f", byz), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.3f", pt.WinnerQuality.Mean), fmt.Sprintf("%.3f", pt.WinnerQuality.Min))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		"Byzantine lurers are census-excluded; accuracy is the committed colony's winner quality",
		"lure saturation: between 2% and 5% lurers the standing bad-nest population stops dropping to zero, so full unanimity stalls even though the honest majority sits on the best site")
	return rep, nil
}

// --- E24: adversary series — idle-pool emigration ----------------------------------

func runE24(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	const window = 60
	rep := Report{
		ID:    "E24",
		Title: "Idle-pool emigration (sleeping reserve)",
		Claim: "idle-pool scenario (Afek–Gordon–Sulamy): sleeping ants are counted, not faulty — the colony cannot finish before the reserve wakes, and still converges once it joins",
		Pass:  true,
	}
	// A single good nest isolates the idle-pool effect: with two equally good
	// sites, late wakers commit to the minority site and can freeze a split
	// that unanimity never resolves — a symmetry trap, not a reserve effect.
	env, err := workload.Binary(4, 1)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "sleepFrac", "successRate", "meanRounds", "minRounds")
	for _, sleep := range []float64{0, 0.25, 0.5, 0.75} {
		cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
		if sleep > 0 {
			cfg.Wrap = faults.Spec{SleepFraction: sleep, SleepWindow: window, Salt: 5003}
		}
		pt, err := MeasureConvergence(algo.Simple{}, cfg, reps, fmt.Sprintf("E24-%.2f", sleep))
		if err != nil {
			return Report{}, err
		}
		if pt.SuccessRate < 0.75 {
			rep.Pass = false
		}
		// With hundreds of sleepers, the last wake round lands at ~window+1
		// w.h.p., and unanimity needs every woken ant: solved runs cannot
		// terminate much before the window closes.
		if sleep >= 0.25 && pt.Solved > 0 && pt.Rounds.Min < float64(window)*0.9 {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%.2f", sleep), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.1f", pt.Rounds.Min))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("wake window %d rounds: solved faulted runs never finish before ~%d rounds, the reserve's last wake", window, window))
	return rep, nil
}

// --- E25: adaptive adversary — targeted decapitation vs crash budget ---------------

func runE25(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	rep := Report{
		ID:    "E25",
		Title: "Targeted decapitation vs crash budget (adaptive adversary)",
		Claim: "an adaptive adversary that watches the commitment census and crashes ants committed to the leading nest each round is strictly harder than the same crash budget spent obliviously — yet a bounded budget still only delays convergence, it cannot prevent it",
		Pass:  true,
	}
	env, err := workload.Binary(4, 2)
	if err != nil {
		return Report{}, err
	}
	tb := stats.NewTable("", "budget/n", "adversary", "successRate", "meanRounds", "p95Rounds")
	for _, frac := range []float64{0, 0.05, 0.1, 0.2} {
		budget := int(frac * float64(n))
		for _, adaptive := range []bool{false, true} {
			if frac == 0 && adaptive {
				continue // a zero budget has no adaptive variant
			}
			cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
			label := "none"
			if budget > 0 {
				if adaptive {
					// The schedule observes every end-of-round census and
					// decapitates the front-runner, one ant per round.
					b := budget
					cfg.Wrap = faults.Spec{Salt: 5004, NewSchedule: func() faults.Schedule {
						return &faults.TargetedCrash{PerRound: 1, Budget: b}
					}}
					label = "targeted"
				} else {
					// The oblivious control: the same expected number of ants
					// crash at stream-drawn rounds, blind to the census.
					cfg.Wrap = faults.Spec{CrashFraction: frac, CrashWindow: 50, Salt: 5004}
					label = "oblivious"
				}
			}
			pt, err := MeasureConvergence(algo.Simple{}, cfg, reps, fmt.Sprintf("E25-%.2f-%s", frac, label))
			if err != nil {
				return Report{}, err
			}
			// A bounded budget must not break convergence: once the budget is
			// spent the adversary is inert and the survivors finish the hunt.
			if frac <= 0.2 && pt.SuccessRate < 0.75 {
				rep.Pass = false
			}
			tb.AddRow(fmt.Sprintf("%.2f", frac), label, fmt.Sprintf("%.3f", pt.SuccessRate),
				fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.1f", pt.Rounds.P95))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		"the targeted schedule repeatedly beheads the emerging consensus, so equal budgets cost more rounds than oblivious crashes — but exhaustion of the budget always lets the colony re-converge",
		"every adaptive cell runs on the batch engine's mutation pass (the schedule compiles with the program)")
	return rep, nil
}

// --- E26: adaptive adversary — census-chasing lurers vs static lurers --------------

func runE26(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	rep := Report{
		ID:    "E26",
		Title: "Census-chasing lurers vs static lurers (adaptive relocation)",
		Claim: "lurers that re-aim at whichever bad nest currently holds the most committed ants concentrate the colony's confusion on one site; a small honest majority still selects the best nest, as in the static §6 case",
		Pass:  true,
	}
	// Graded qualities with TWO zero-quality nests: static lurers scatter
	// across whichever bad nest each found first, adaptive lurers coordinate.
	env := sim.MustEnvironment([]float64{0.2, 0.9, 0, 0})
	best := 0.9
	tb := stats.NewTable("", "byzFrac", "adversary", "successRate", "meanWinnerQ", "minWinnerQ")
	for _, byz := range []float64{0, 0.01, 0.02, 0.05} {
		for _, adaptive := range []bool{false, true} {
			if byz == 0 && adaptive {
				continue
			}
			cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
			label := "none"
			if byz > 0 {
				spec := faults.Spec{ByzantineFraction: byz, Salt: 5005}
				label = "static"
				if adaptive {
					spec.NewSchedule = func() faults.Schedule { return &faults.AdaptiveLurer{} }
					label = "adaptive"
				}
				cfg.Wrap = spec
			}
			pt, err := MeasureConvergence(algo.QualityAware{}, cfg, reps, fmt.Sprintf("E26-%.2f-%s", byz, label))
			if err != nil {
				return Report{}, err
			}
			// As in E23: accuracy must survive a small minority. Past ~2% the
			// standing lure population defeats unanimity — measured, not gated.
			if byz <= 0.02 && (pt.SuccessRate < 0.75 || pt.WinnerQuality.Mean < 0.9*best) {
				rep.Pass = false
			}
			tb.AddRow(fmt.Sprintf("%.2f", byz), label, fmt.Sprintf("%.3f", pt.SuccessRate),
				fmt.Sprintf("%.3f", pt.WinnerQuality.Mean), fmt.Sprintf("%.3f", pt.WinnerQuality.Min))
		}
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		"adaptive relocation pools every lurer onto the census front-runner among the bad nests, where static lurers split across their individually-latched targets",
		"relocated lurers advertise nests they never visited; the scalar oracle licenses the recruit via the engine's visited-teach, the batch lane by construction")
	return rep, nil
}

// --- E27: adaptive adversary — churn with exponential restart ----------------------

func runE27(scale Scale) (Report, error) {
	n := pick(scale, 256, 1024)
	reps := pick(scale, 8, 24)
	rep := Report{
		ID:    "E27",
		Title: "Crash-recovery churn (geometric downtime)",
		Claim: "under continuous churn — every ant crashing at a constant per-round hazard and restarting after a geometric downtime — the colony keeps converging: restarted ants re-enter the algorithm from its first round and are re-recruited by the committed majority",
		Pass:  true,
	}
	env, err := workload.Binary(4, 1)
	if err != nil {
		return Report{}, err
	}
	const meanDowntime = 8.0
	tb := stats.NewTable("", "crashProb", "successRate", "meanRounds", "p95Rounds")
	for _, p := range []float64{0, 0.001, 0.005, 0.02} {
		cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
		if p > 0 {
			hazard := p
			cfg.Wrap = faults.Spec{
				Salt: 5006,
				NewSchedule: func() faults.Schedule {
					return faults.Churn{CrashProb: hazard, MeanDowntime: meanDowntime}
				},
				// The scalar fallback path revives ants from a pristine rebuild;
				// the batch engine (which these cells actually run on) re-seeds
				// from its own columns.
				Rebuild: func(seed uint64) ([]sim.Agent, error) {
					return algo.Simple{}.Build(n, env, rng.New(seed).Split(2))
				},
			}
		}
		pt, err := MeasureConvergence(algo.Simple{}, cfg, reps, fmt.Sprintf("E27-%.3f", p))
		if err != nil {
			return Report{}, err
		}
		// Unanimity needs every censused ant: a standing crashed population
		// subtracts from the census, so convergence requires the lulls between
		// crashes to cover the whole colony — moderate hazards must still pass.
		if p <= 0.005 && pt.SuccessRate < 0.75 {
			rep.Pass = false
		}
		tb.AddRow(fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", pt.SuccessRate),
			fmt.Sprintf("%.1f", pt.Rounds.Mean), fmt.Sprintf("%.1f", pt.Rounds.P95))
	}
	rep.Tables = append(rep.Tables, tb.String())
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("mean downtime %.0f rounds: at hazard p the steady-state crashed fraction is ~p·%.0f/(1+p·%.0f), the census shortfall the colony must outwait", meanDowntime, meanDowntime, meanDowntime),
		"restarted ants are bit-identically re-seeded on both engines (pristine per-ant streams are split, never consumed)")
	return rep, nil
}
