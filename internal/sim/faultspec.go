package sim

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
)

// FaultSpec is the compiled form of a fault-injection plan: the per-colony
// knobs from which a batch lane materializes its crash-round, Byzantine and
// sleep columns at replicate start. It is the lowering target of the faults
// package's declarative Spec (which also lowers to the scalar wrappers); both
// paths derive the victim assignment from the SAME stream via Assign, which is
// what keeps a faulted batch replicate bit-identical to the wrapped scalar
// colony.
//
// Fault lanes force the general execution path (Program.Lockstep reports
// false): faulted ants leave their program states for synthetic engine states
// (a crashed ant walks to its last known nest or idles at home, a Byzantine
// ant searches for a bad nest and then lures for it forever, a sleeping ant
// waits at home until its wake round), so the colony is heterogeneous even
// under an otherwise-lockstep program.
type FaultSpec struct {
	// CrashFraction of the colony crashes at a uniformly random round in
	// [1, CrashWindow] (the §6 crash-fault extension). A crashed ant wanders
	// to the last candidate nest it knew — or waits passively at home — and
	// never acts on observations again; it still occupies the model and
	// perturbs population counts.
	CrashFraction float64
	// CrashWindow is the last round by which scheduled crashes fire; values
	// <= 0 select DefaultFaultWindow.
	CrashWindow int
	// ByzantineFraction of the colony is replaced by luring adversaries that
	// search until they find a bad nest and then actively recruit for it
	// every round (§6 malicious faults).
	ByzantineFraction float64
	// SleepFraction of the colony starts asleep: an idle reserve that waits
	// passively at home and joins the emigration only at its wake round,
	// drawn uniformly from [2, SleepWindow+1] (the idle-pool scenario of
	// Afek–Gordon–Sulamy's "Idle Ants Have a Role"). Sleeping ants are not
	// faulty — the census counts them — so convergence requires the reserve
	// to wake and join.
	SleepFraction float64
	// SleepWindow bounds the wake rounds; values <= 0 select
	// DefaultFaultWindow.
	SleepWindow int
	// Salt is the Split index of the fault stream: victims and their rounds
	// are drawn from rng.New(seed).Split(Salt), exactly like the scalar
	// wrapper builders. Choose a salt disjoint from the engine's stream
	// indices (0, 1, 2) so fault draws decorrelate from the simulation.
	Salt uint64
	// NewSchedule, when non-nil, attaches an adaptive adversary: a fresh
	// FaultSchedule is built per replicate and stepped at the end of every
	// round with the lane's ColonyView and the dedicated adversary stream
	// rng.New(seed).Split(EffectiveScheduleSalt()). The scalar wrapper layer
	// (faults.Spec) builds the identical schedule and consumes the identical
	// stream, which is what keeps adaptive-fault replicates bit-identical
	// across engines. The factory must be deterministic: calling it twice
	// must yield schedules that draw and mutate identically.
	NewSchedule func() FaultSchedule
	// ScheduleSalt is the Split index of the adversary stream; 0 selects
	// Salt+1 so the schedule's draws never collide with the victim
	// assignment's (see EffectiveScheduleSalt).
	ScheduleSalt uint64
}

// DefaultFaultWindow is the crash/sleep scheduling window used when the spec
// leaves the window at 0, on both engines.
const DefaultFaultWindow = 64

// batchSyntheticStates is the number of engine-owned states a faulted lane
// appends after the program's own (sleeping, Byzantine-searching,
// Byzantine-luring, crashed), which is why faulted programs are capped at
// 256 - batchSyntheticStates states.
const batchSyntheticStates = 4

// Enabled reports whether the spec injects any faults at all — static
// fractions or an adaptive schedule. A zero FaultSpec is disabled and costs
// the engine nothing.
func (f FaultSpec) Enabled() bool {
	return f.CrashFraction > 0 || f.ByzantineFraction > 0 || f.SleepFraction > 0 ||
		f.NewSchedule != nil
}

// Validate checks the spec's fractions and windows.
func (f FaultSpec) Validate() error {
	if f.CrashFraction < 0 || f.ByzantineFraction < 0 || f.SleepFraction < 0 {
		return fmt.Errorf("sim: negative fault fraction %+v", f)
	}
	if sum := f.CrashFraction + f.ByzantineFraction + f.SleepFraction; sum > 1 {
		return fmt.Errorf("sim: fault fractions sum to %v > 1", sum)
	}
	if f.CrashWindow < 0 || f.SleepWindow < 0 {
		return fmt.Errorf("sim: negative fault window (crash %d, sleep %d)", f.CrashWindow, f.SleepWindow)
	}
	return nil
}

// EffectiveScheduleSalt is the Split index the adversary stream is derived
// with: ScheduleSalt when set, else Salt+1. The default keeps the schedule's
// stream disjoint from the victim-assignment stream (Salt) without the
// caller having to pick a second salt; both engines derive the stream from
// this one value, so they can never disagree on the adversary's randomness.
func (f FaultSpec) EffectiveScheduleSalt() uint64 {
	if f.ScheduleSalt != 0 {
		return f.ScheduleSalt
	}
	return f.Salt + 1
}

// crashWindow returns the effective crash scheduling window.
func (f FaultSpec) crashWindow() int {
	if f.CrashWindow <= 0 {
		return DefaultFaultWindow
	}
	return f.CrashWindow
}

// sleepWindow returns the effective wake scheduling window.
func (f FaultSpec) sleepWindow() int {
	if f.SleepWindow <= 0 {
		return DefaultFaultWindow
	}
	return f.SleepWindow
}

// Assign draws the victim assignment for an n-ant colony from src into the
// caller's columns: crashRound[i] > 0 schedules ant i to crash at the start
// of that round, byz[i] = 1 replaces ant i by a Byzantine adversary, and
// wakeRound[i] > 1 puts ant i to sleep until the start of that round. perm is
// scratch for the victim permutation. The columns must each hold at least n
// entries; every entry is (re)written. Assign performs no allocations.
//
// This is the ONE canonical consumption of the fault stream: a uniform victim
// permutation, then one crash-round draw per crash victim in permutation
// order, then (draw-free) the Byzantine victims, then one wake-round draw per
// sleeping victim. The scalar faults.Spec wrapper builder delegates here, so
// the batch lane's columns and the scalar wrappers can never disagree on who
// fails when — and with SleepFraction = 0 the sequence is exactly the stream
// of the retired faults.Plan wrapper, which faults.TestSpecMatchesLegacyPlanStream
// pins as a frozen literal (rng.Source.PermInto32 is draw-identical to Perm,
// a pinned property).
func (f FaultSpec) Assign(n int, src *rng.Source, crashRound, wakeRound []int32, byz []uint8, perm []int32) {
	crashRound = crashRound[:n]
	wakeRound = wakeRound[:n]
	byz = byz[:n]
	perm = perm[:n]
	for i := 0; i < n; i++ {
		crashRound[i] = 0
		wakeRound[i] = 0
		byz[i] = 0
	}
	nCrash := int(f.CrashFraction * float64(n))
	nByz := int(f.ByzantineFraction * float64(n))
	nSleep := int(f.SleepFraction * float64(n))
	src.PermInto32(perm)
	idx := 0
	for ; idx < nCrash; idx++ {
		crashRound[perm[idx]] = int32(1 + src.Intn(f.crashWindow()))
	}
	for ; idx < nCrash+nByz; idx++ {
		byz[perm[idx]] = 1
	}
	for ; idx < nCrash+nByz+nSleep; idx++ {
		// Wake rounds start at 2: a sleeper sleeps through at least round 1
		// (a wake round of 1 would make the sleep wrapper a no-op).
		wakeRound[perm[idx]] = int32(2 + src.Intn(f.sleepWindow()))
	}
}
