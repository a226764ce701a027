package async

import (
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

func TestNewJitterValidation(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(1))
	if _, err := NewJitter(nil, 0.1, rng.New(2)); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewJitter(inner, -0.1, rng.New(2)); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := NewJitter(inner, 1.0, rng.New(2)); err == nil {
		t.Fatal("p = 1 accepted (would hold forever)")
	}
	if _, err := NewJitter(inner, 0.1, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestNewPhaseShiftValidation(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(1))
	if _, err := NewPhaseShift(nil, 2); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewPhaseShift(inner, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestPhaseShiftHoldsThenRuns(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(3))
	j, err := NewPhaseShift(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two held rounds: uncommitted inner → passive wait at home.
	for r := 1; r <= 2; r++ {
		act := j.Act(r)
		if act.Kind != sim.ActionRecruit || act.Active {
			t.Fatalf("held round %d act = %+v, want recruit(0, home)", r, act)
		}
		j.Observe(r, sim.Outcome{Nest: sim.Home})
	}
	if j.LogicalRound() != 0 {
		t.Fatalf("inner advanced during holds: logical = %d", j.LogicalRound())
	}
	// Round 3: inner wakes up and performs its logical round 1 = search.
	if act := j.Act(3); act.Kind != sim.ActionSearch {
		t.Fatalf("post-delay act = %+v, want search", act)
	}
	j.Observe(3, sim.Outcome{Nest: 2, Count: 1, Quality: 1})
	if j.LogicalRound() != 1 {
		t.Fatalf("logical round = %d, want 1", j.LogicalRound())
	}
	if nestID, ok := j.Committed(); !ok || nestID != 2 {
		t.Fatalf("commitment not delegated: %v %v", nestID, ok)
	}
}

func TestJitterHoldUsesCommittedNest(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(4))
	j, err := NewPhaseShift(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Act(1)
	j.Observe(1, sim.Outcome{Nest: 3, Count: 1, Quality: 1})
	// Force a hold and check the held action parks at the committed nest.
	j.initialHolds = 1
	act := j.Act(2)
	if act.Kind != sim.ActionGo || act.Nest != 3 {
		t.Fatalf("held act = %+v, want go(3)", act)
	}
	// The held outcome must not reach the inner protocol.
	before := j.LogicalRound()
	j.Observe(2, sim.Outcome{Nest: 3, Count: 5})
	if j.LogicalRound() != before {
		t.Fatal("held observe advanced the inner clock")
	}
}

func TestJitterHoldFrequency(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(5))
	j, err := NewJitter(inner, 0.3, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5000
	for r := 1; r <= rounds; r++ {
		j.Act(r)
		j.Observe(r, sim.Outcome{Nest: 1, Count: 1, Quality: 1})
	}
	passRate := float64(j.LogicalRound()) / rounds
	if passRate < 0.65 || passRate > 0.75 {
		t.Fatalf("pass-through rate %v, want ~0.7 for p=0.3", passRate)
	}
}

func TestSimpleConvergesUnderJitter(t *testing.T) {
	t.Parallel()
	// §6: Algorithm 3 should tolerate modest clock drift.
	env := sim.MustEnvironment([]float64{1, 0, 1})
	plan := Plan{HoldP: 0.15, MaxDelay: 4, Salt: 101}
	solved := 0
	const reps = 6
	for seed := uint64(1); seed <= reps; seed++ {
		res, err := core.Run(algo.Simple{}, core.RunConfig{
			N: 200, Env: env, Seed: seed, MaxRounds: 4000,
			Wrap: plan,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps-1 {
		t.Fatalf("simple solved only %d/%d under 15%% jitter", solved, reps)
	}
}

func TestOptimalDegradesUnderJitter(t *testing.T) {
	t.Parallel()
	// The paper's stated contrast: Algorithm 2 "relies heavily on the
	// synchrony". Under substantial jitter, its 4-round phase structure
	// shears apart; we verify it converges strictly less reliably than
	// Algorithm 3 under the identical perturbation (E14 quantifies this).
	env := sim.MustEnvironment([]float64{1, 1})
	planO := Plan{HoldP: 0.25, Salt: 103}
	planS := Plan{HoldP: 0.25, Salt: 104}
	const reps = 8
	solvedOptimal, solvedSimple := 0, 0
	for seed := uint64(1); seed <= reps; seed++ {
		resO, err := core.Run(algo.Optimal{}, core.RunConfig{
			N: 128, Env: env, Seed: seed, MaxRounds: 3000,
			Wrap: planO,
		})
		if err != nil {
			t.Fatalf("optimal seed %d: %v", seed, err)
		}
		if resO.Solved {
			solvedOptimal++
		}
		resS, err := core.Run(algo.Simple{}, core.RunConfig{
			N: 128, Env: env, Seed: seed, MaxRounds: 3000,
			Wrap: planS,
		})
		if err != nil {
			t.Fatalf("simple seed %d: %v", seed, err)
		}
		if resS.Solved {
			solvedSimple++
		}
	}
	if solvedOptimal > solvedSimple {
		t.Fatalf("optimal (%d/%d) out-survived simple (%d/%d) under heavy jitter — "+
			"the paper's fragility contrast should hold", solvedOptimal, reps, solvedSimple, reps)
	}
	if solvedSimple < reps/2 {
		t.Fatalf("simple solved only %d/%d under jitter; expected robustness", solvedSimple, reps)
	}
}

func TestPlanApplyValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	agents, err := (algo.Simple{}).Build(4, env, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Plan{HoldP: 1.5}).WrapAgents(1, agents); err == nil {
		t.Fatal("invalid hold probability applied")
	}
	if _, err := (Plan{MaxDelay: -2}).WrapAgents(1, agents); err == nil {
		t.Fatal("negative delay applied")
	}
	wrapped, err := (Plan{HoldP: 0.1, MaxDelay: 3}).WrapAgents(2, agents)
	if err != nil || len(wrapped) != 4 {
		t.Fatalf("valid plan failed: %v", err)
	}
}
