package faults

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// SleepAnt wraps an agent in an idle reserve: until its wake round it waits
// passively at the home nest and ignores everything it observes (being
// captured included — an idle ant dragged around simply walks home again),
// and from the wake round on it is fully transparent. Sleeping ants are NOT
// faulty: the census counts them, so a colony with an idle pool cannot
// converge before the reserve wakes and joins the emigration — the scenario
// of Afek–Gordon–Sulamy's "Idle Ants Have a Role" (see EXPERIMENTS.md E24).
type SleepAnt struct {
	inner     sim.Agent
	wakeRound int
}

var _ sim.Agent = (*SleepAnt)(nil)

// NewSleepAnt schedules inner to wake at the start of wakeRound (>= 2: a
// wake round of 1 would never sleep at all).
func NewSleepAnt(inner sim.Agent, wakeRound int) (*SleepAnt, error) {
	if inner == nil {
		return nil, fmt.Errorf("faults: nil inner agent")
	}
	if wakeRound < 2 {
		return nil, fmt.Errorf("faults: wake round %d must be >= 2", wakeRound)
	}
	return &SleepAnt{inner: inner, wakeRound: wakeRound}, nil
}

// Act implements sim.Agent. The inner agent's logical clock starts at the
// wake round: it sees round 1 on its first call and runs its algorithm from
// the beginning, exactly as the batch engine's fault lane wakes a sleeping
// ant into the program's initial state. Without the translation, round-keyed
// agents (OptimalAnt's global search fires at round 1 only) would skip their
// opening moves entirely.
func (s *SleepAnt) Act(round int) sim.Action {
	if round < s.wakeRound {
		return sim.Recruit(false, sim.Home)
	}
	return s.inner.Act(round - s.wakeRound + 1)
}

// Observe implements sim.Agent, with the same clock translation as Act.
func (s *SleepAnt) Observe(round int, out sim.Outcome) {
	if round < s.wakeRound {
		return
	}
	s.inner.Observe(round-s.wakeRound+1, out)
}

// Awake reports whether the ant has joined the emigration.
func (s *SleepAnt) Awake(round int) bool { return round >= s.wakeRound }

// Committed delegates to the inner agent: a sleeping ant's inner agent has
// never acted, so it reports uncommitted, and an awake ant's commitment is
// the inner one.
func (s *SleepAnt) Committed() (sim.NestID, bool) {
	if com, ok := s.inner.(committer); ok {
		return com.Committed()
	}
	return sim.Home, false
}

// sleepDecider is a SleepAnt over a deciding inner agent, forwarding the
// verdict for the same census reason as crashDecider.
type sleepDecider struct{ *SleepAnt }

// Decided forwards the inner agent's verdict (false while asleep: the inner
// agent is still in its initial state).
func (s sleepDecider) Decided() bool { return s.inner.(decider).Decided() }

// wrapSleep wraps inner to sleep until wakeRound, preserving the inner
// agent's decider contract when it has one.
func wrapSleep(inner sim.Agent, wakeRound int) (sim.Agent, error) {
	slept, err := NewSleepAnt(inner, wakeRound)
	if err != nil {
		return nil, err
	}
	if _, ok := inner.(decider); ok {
		return sleepDecider{slept}, nil
	}
	return slept, nil
}

// Spec is the declarative fault plan: per-colony crash, Byzantine and sleep
// fractions plus the stream salt the victim assignment is drawn with. It
// lowers BOTH ways — to the scalar wrappers (WrapAgents, for core.RunConfig.
// Wrap) and to the batch engine's fault lanes (BatchFaults, recognized by
// core.CompileForBatch) — from ONE canonical stream consumption,
// sim.FaultSpec.Assign, which is what pins the two paths bit-identical: the
// same ants crash at the same rounds, turn Byzantine, or sleep until the same
// wake rounds under either engine.
//
// With SleepFraction 0 the assignment is exactly the one the retired Plan
// wrapper drew from the same stream (pinned by
// TestSpecMatchesLegacyPlanStream), so fault tables first measured under
// Plan reproduce unchanged.
type Spec struct {
	// CrashFraction of the colony crashes at a uniformly random round in
	// [1, CrashWindow] (§6 crash faults).
	CrashFraction float64
	// CrashWindow is the last round by which scheduled crashes fire;
	// values <= 0 select sim.DefaultFaultWindow.
	CrashWindow int
	// ByzantineFraction of the colony is replaced by luring adversaries
	// (§6 malicious faults).
	ByzantineFraction float64
	// SleepFraction of the colony starts as an idle reserve, waking at a
	// uniformly random round in [2, SleepWindow+1].
	SleepFraction float64
	// SleepWindow bounds the wake rounds; values <= 0 select
	// sim.DefaultFaultWindow.
	SleepWindow int
	// Salt is the Split index of the fault stream: victims are drawn from
	// rng.New(seed).Split(Salt) under the run's root seed.
	Salt uint64
	// NewSchedule, when non-nil, attaches an adaptive adversary: a fresh
	// Schedule per replicate, stepped at the end of every round on the
	// colony snapshot with the dedicated adversary stream
	// rng.New(seed).Split(EffectiveScheduleSalt). Both engines build the
	// schedule from this factory and feed it the same snapshot and stream,
	// which is what keeps adaptive-fault replicates bit-identical. The
	// factory must be deterministic: two calls must yield schedules that
	// draw and mutate identically.
	NewSchedule func() Schedule
	// ScheduleSalt is the Split index of the adversary stream; 0 selects
	// Salt+1 (see sim.FaultSpec.EffectiveScheduleSalt).
	ScheduleSalt uint64
	// Rebuild rebuilds the pristine colony for the replicate seed, for
	// schedules that restart crashed ants: a restarted ant adopts
	// Rebuild(seed)[i] as its fresh inner agent, whose per-ant stream is
	// bit-identical to the one ant i was born with (builder streams are
	// split, never consumed, off the builder root). Scalar-only — the batch
	// lane re-seeds restarted ants from its own columns — and required only
	// when the schedule emits FaultRestart ops; leaving it nil makes a
	// restart a run error. Typically cfg's algorithm builder closed over the
	// run's n and environment.
	Rebuild func(seed uint64) ([]sim.Agent, error)
}

// lower converts the spec to its sim-level form. Rebuild stays behind:
// it is scalar-machinery only.
func (s Spec) lower() sim.FaultSpec {
	return sim.FaultSpec{
		CrashFraction:     s.CrashFraction,
		CrashWindow:       s.CrashWindow,
		ByzantineFraction: s.ByzantineFraction,
		SleepFraction:     s.SleepFraction,
		SleepWindow:       s.SleepWindow,
		Salt:              s.Salt,
		NewSchedule:       s.NewSchedule,
		ScheduleSalt:      s.ScheduleSalt,
	}
}

// Enabled reports whether the spec injects any faults.
func (s Spec) Enabled() bool { return s.lower().Enabled() }

// Validate checks the spec's fractions and windows.
func (s Spec) Validate() error { return s.lower().Validate() }

// BatchFaults implements core.BatchFaultWrapper: it exposes the spec's
// sim-level lowering so core.CompileForBatch can compile a Spec-wrapped
// config to the batch engine's fault lanes instead of declining the wrapper.
func (s Spec) BatchFaults() (sim.FaultSpec, bool) { return s.lower(), s.Enabled() }

// WrapAgents implements core.AgentWrapper: it draws the victim assignment
// from rng.New(seed).Split(Salt) via sim.FaultSpec.Assign — the batch lane
// consumes the identical stream — and wraps the victims in the scalar
// CrashAnt/ByzantineAnt/SleepAnt wrappers, preserving each inner agent's
// decider contract.
//
// With a NewSchedule attached, EVERY ant is wrapped instead (schedAnt
// subsumes the static wrappers), sharing one controller that steps the
// schedule from the engine's round hook: any ant can crash or restart
// under an adaptive adversary, so every ant needs the status machinery.
// The victim assignment is drawn identically either way.
func (s Spec) WrapAgents(seed uint64, agents []sim.Agent) ([]sim.Agent, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fs := s.lower()
	if !fs.Enabled() {
		return agents, nil
	}
	n := len(agents)
	crashRound := make([]int32, n)
	wakeRound := make([]int32, n)
	byz := make([]uint8, n)
	perm := make([]int32, n)
	src := rng.New(seed).Split(s.Salt)
	fs.Assign(n, src, crashRound, wakeRound, byz, perm)
	if s.NewSchedule != nil {
		return s.wrapScheduled(seed, fs, agents, crashRound, wakeRound, byz)
	}
	for i := range agents {
		var err error
		switch {
		case crashRound[i] > 0:
			agents[i], err = wrapCrash(agents[i], int(crashRound[i]))
		case byz[i] != 0:
			// The per-victim stream is split off the fault stream; the
			// adversary never draws from it (see ByzantineAnt), so the batch
			// lane needs no counterpart.
			agents[i] = NewByzantineAnt(src.Split(uint64(i)))
		case wakeRound[i] > 0:
			agents[i], err = wrapSleep(agents[i], int(wakeRound[i]))
		}
		if err != nil {
			return nil, err
		}
	}
	return agents, nil
}

// wrapScheduled is WrapAgents' adaptive path: one schedCtrl per replicate,
// every ant wrapped in a schedAnt carrying its static fault plan (which
// sub-sumes CrashAnt/ByzantineAnt/SleepAnt behavior), the schedule built
// fresh and its adversary stream split at the canonical index. The
// per-victim Byzantine stream split of the static path is skipped: Split
// never advances the parent and ByzantineAnt never draws, so the streams
// stay bit-identical.
func (s Spec) wrapScheduled(seed uint64, fs sim.FaultSpec, agents []sim.Agent, crashRound, wakeRound []int32, byz []uint8) ([]sim.Agent, error) {
	n := len(agents)
	ctrl := &schedCtrl{
		sched:   s.NewSchedule(),
		adv:     rng.New(seed).Split(fs.EffectiveScheduleSalt()),
		rebuild: s.Rebuild,
		seed:    seed,
		ants:    make([]*schedAnt, n),
		ops:     make([]sim.FaultOp, 0, 64),
	}
	if ctrl.sched == nil {
		return nil, fmt.Errorf("faults: NewSchedule returned nil")
	}
	for _, inner := range agents {
		// The algorithm's decider contract is a colony property (mirrors
		// Program.Decides), read off the pre-replacement agents so a
		// Byzantine victim's lost inner still counts.
		if _, ok := inner.(decider); ok {
			ctrl.decides = true
			break
		}
	}
	for i, inner := range agents {
		a := &schedAnt{ctrl: ctrl, idx: i, inner: inner, lastNest: sim.Home}
		switch {
		case crashRound[i] > 0:
			a.crashAt = int(crashRound[i])
		case byz[i] != 0:
			a.inner = nil
			a.status = sim.AntByzantine
		case wakeRound[i] > 0:
			a.wakeAt = int(wakeRound[i])
			a.status = sim.AntSleeping
		}
		ctrl.ants[i] = a
		if a.inner != nil {
			if _, ok := a.inner.(decider); ok {
				agents[i] = schedDecider{a}
				continue
			}
		}
		agents[i] = a
	}
	return agents, nil
}
