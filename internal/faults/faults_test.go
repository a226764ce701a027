package faults

import (
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

func TestNewCrashAntValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewCrashAnt(nil, 5); err == nil {
		t.Fatal("nil inner accepted")
	}
	inner := algo.NewSimpleAnt(10, rng.New(1))
	if _, err := NewCrashAnt(inner, 0); err == nil {
		t.Fatal("crash round 0 accepted")
	}
}

func TestCrashAntTransparentUntilCrash(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(2))
	c, err := NewCrashAnt(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Faulty() {
		t.Fatal("faulty before crash round")
	}
	if act := c.Act(1); act.Kind != sim.ActionSearch {
		t.Fatalf("pre-crash act = %+v, want delegated search", act)
	}
	c.Observe(1, sim.Outcome{Nest: 2, Count: 1, Quality: 1})
	if nestID, ok := c.Committed(); !ok || nestID != 2 {
		t.Fatalf("pre-crash commitment = %v %v", nestID, ok)
	}
	c.Act(2)
	c.Observe(2, sim.Outcome{Nest: 2})
	// Round 3: crash fires.
	act := c.Act(3)
	if !c.Faulty() {
		t.Fatal("not faulty at crash round")
	}
	if act.Kind != sim.ActionGo || act.Nest != 2 {
		t.Fatalf("crashed act = %+v, want go(last nest 2)", act)
	}
	if _, ok := c.Committed(); ok {
		t.Fatal("crashed ant still reports commitment")
	}
}

func TestCrashAntWithoutKnownNest(t *testing.T) {
	t.Parallel()
	inner := algo.NewSimpleAnt(10, rng.New(3))
	c, err := NewCrashAnt(inner, 1) // crashes before ever searching
	if err != nil {
		t.Fatal(err)
	}
	act := c.Act(1)
	if act.Kind != sim.ActionRecruit || act.Active || act.Nest != sim.Home {
		t.Fatalf("nest-less crash act = %+v, want recruit(0, home)", act)
	}
	// If a recruiter drags the corpse somewhere, it stays there.
	c.Observe(1, sim.Outcome{Nest: 4, Recruited: true})
	if act := c.Act(2); act.Kind != sim.ActionGo || act.Nest != 4 {
		t.Fatalf("dragged corpse act = %+v, want go(4)", act)
	}
}

func TestByzantineAntHuntsBadNestThenLures(t *testing.T) {
	t.Parallel()
	b := NewByzantineAnt(rng.New(4))
	if !b.Faulty() {
		t.Fatal("byzantine ant not faulty")
	}
	if act := b.Act(1); act.Kind != sim.ActionSearch {
		t.Fatalf("hunting act = %+v", act)
	}
	b.Observe(1, sim.Outcome{Nest: 1, Quality: 1}) // good nest: keep hunting
	if act := b.Act(2); act.Kind != sim.ActionSearch {
		t.Fatalf("act after good nest = %+v, want search", act)
	}
	b.Observe(2, sim.Outcome{Nest: 3, Quality: 0}) // found a bad nest
	act := b.Act(3)
	if act.Kind != sim.ActionRecruit || !act.Active || act.Nest != 3 {
		t.Fatalf("luring act = %+v, want recruit(1, 3)", act)
	}
}

func TestPlanValidate(t *testing.T) {
	t.Parallel()
	if err := (Spec{CrashFraction: -0.1}).Validate(); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if err := (Spec{CrashFraction: 0.6, ByzantineFraction: 0.6}).Validate(); err == nil {
		t.Fatal("over-unity fractions accepted")
	}
	if err := (Spec{CrashFraction: 0.1, ByzantineFraction: 0.1}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestSimpleSurvivesCrashFaults(t *testing.T) {
	t.Parallel()
	// §6 claim: a small crash fraction must not stop the correct ants from
	// converging on a good nest.
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	spec := Spec{CrashFraction: 0.1, CrashWindow: 40, Salt: 77}
	solved := 0
	const reps = 6
	for seed := uint64(1); seed <= reps; seed++ {
		res, err := core.Run(algo.Simple{}, core.RunConfig{
			N: 200, Env: env, Seed: seed,
			Wrap: spec,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps-1 {
		t.Fatalf("solved only %d/%d under 10%% crash faults", solved, reps)
	}
}

func TestSimpleSurvivesFewByzantine(t *testing.T) {
	t.Parallel()
	// Byzantine lures kidnap honest ants to a bad nest; with a small
	// adversary the colony must still reach a good-nest supermajority. Full
	// unanimity can flicker (kidnaps continue forever), so this test checks
	// the census directly over a fixed horizon.
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	const n = 300
	okRuns := 0
	const reps = 6
	for seed := uint64(1); seed <= reps; seed++ {
		spec := Spec{ByzantineFraction: 0.05, Salt: 78}
		res, err := core.Run(algo.Simple{}, core.RunConfig{
			N: n, Env: env, Seed: seed, MaxRounds: 1200,
			Wrap: spec,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := res.FinalCensus
		bestGood := 0
		for i := 1; i < len(c.Committed); i++ {
			if env.Good(sim.NestID(i)) && c.Committed[i] > bestGood {
				bestGood = c.Committed[i]
			}
		}
		if float64(bestGood) >= 0.9*float64(c.Total) {
			okRuns++
		}
	}
	if okRuns < reps-1 {
		t.Fatalf("good-nest supermajority reached in only %d/%d byzantine runs", okRuns, reps)
	}
}

func TestPlanApplyCountsVictims(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	agents, err := (algo.Simple{}).Build(100, env, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	plan := Spec{CrashFraction: 0.2, ByzantineFraction: 0.1, CrashWindow: 10}
	wrapped, err := plan.WrapAgents(9, agents)
	if err != nil {
		t.Fatal(err)
	}
	crashes, byz := 0, 0
	for _, a := range wrapped {
		switch a.(type) {
		case *CrashAnt:
			crashes++
		case *ByzantineAnt:
			byz++
		}
	}
	if crashes != 20 || byz != 10 {
		t.Fatalf("victims: %d crash, %d byzantine; want 20, 10", crashes, byz)
	}
}

func TestPlanApplyRejectsInvalid(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	agents, err := (algo.Simple{}).Build(10, env, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Spec{CrashFraction: 2}).WrapAgents(1, agents); err == nil {
		t.Fatal("invalid plan applied")
	}
}
