// Package househunt is a Go implementation of the distributed house-hunting
// model and algorithms of Ghaffari, Musco, Radeva and Lynch, "Distributed
// House-Hunting in Ant Colonies" (PODC 2015).
//
// A colony of n probabilistic agents must agree on one good nest out of k
// candidates using only the model's three primitives (search, go, recruit).
// This package is the public facade over the full simulation stack: configure
// a colony with options, run it, inspect the result.
//
//	res, err := househunt.Run(
//	    househunt.WithColonySize(512),
//	    househunt.WithBinaryNests(8, 2),          // 8 nests, 2 good
//	    househunt.WithAlgorithm(househunt.AlgorithmSimple),
//	    househunt.WithSeed(42),
//	)
//	if err != nil { ... }
//	fmt.Println(res.Solved, res.Winner, res.Rounds)
//
// Algorithms: AlgorithmOptimal is the paper's O(log n) Algorithm 2;
// AlgorithmSimple is the O(k log n) Algorithm 3; the remaining identifiers
// cover the paper's §6 extensions (adaptive rates, non-binary qualities,
// noisy perception) and the ablation variants. Fault injection, asynchrony
// and tracing are all options.
package househunt

import (
	"errors"
	"fmt"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/async"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// Algorithm selects which house-hunting algorithm a colony runs.
type Algorithm string

// The available algorithms.
const (
	// AlgorithmOptimal is the paper's Algorithm 2: asymptotically optimal
	// O(log n) competition by population trend, with the analysis-consistent
	// Case 3 re-baselining (see DESIGN.md).
	AlgorithmOptimal Algorithm = "optimal"
	// AlgorithmOptimalLiteral is Algorithm 2 with the pseudocode's literal
	// Case 3 (stale count baseline); it can deadlock and exists for the E17
	// ablation.
	AlgorithmOptimalLiteral Algorithm = "optimal-literal"
	// AlgorithmSimple is the paper's Algorithm 3: recruit with probability
	// count/n; O(k log n) rounds.
	AlgorithmSimple Algorithm = "simple"
	// AlgorithmSimplePFSM is Algorithm 3 expressed in the probabilistic
	// finite-state-machine framework; behaviourally identical to
	// AlgorithmSimple.
	AlgorithmSimplePFSM Algorithm = "simple-pfsm"
	// AlgorithmAdaptive is the §6 boosted-rate extension.
	AlgorithmAdaptive Algorithm = "adaptive"
	// AlgorithmQualityAware is the §6 non-binary-quality extension
	// (recruitment probability quality·count/n).
	AlgorithmQualityAware Algorithm = "quality"
	// AlgorithmSpreader is the §3 lower-bound rumor-spreading process; it
	// requires an environment with exactly one good nest.
	AlgorithmSpreader Algorithm = "spreader"
	// AlgorithmQuorum is the quorum-gated transport strategy of the biology
	// (§1.1): tandem runs until the committed nest's population passes a
	// quorum, then 3x-capacity transports. Tune with WithQuorum.
	AlgorithmQuorum Algorithm = "quorum"
	// AlgorithmApproxN is Algorithm 3 where each ant knows the colony size
	// only approximately (§6). Tune with WithColonySizeError.
	AlgorithmApproxN Algorithm = "approxn"
)

// Config collects a colony configuration. Construct with options via New or
// Run; the zero value is not runnable.
type Config struct {
	n          int
	qualities  []float64
	algorithm  Algorithm
	seed       uint64
	maxRounds  int
	stability  int
	concurrent bool
	traced     bool

	countNoise    float64
	flipP         float64
	encounterEst  *nest.EncounterRateCounter
	crashFrac     float64
	crashWindow   int
	byzantineFrac float64
	sleepFrac     float64
	sleepWindow   int
	jitterP       float64
	maxDelay      int

	adaptiveTau      int
	adaptiveFloorDiv float64

	quorumMultiplier float64
	quorumCarry      int
	quorumDocility   float64
	nError           float64
}

// Option configures a colony.
type Option func(*Config) error

// WithColonySize sets the number of ants n (required, positive).
func WithColonySize(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("househunt: colony size %d must be positive", n)
		}
		c.n = n
		return nil
	}
}

// WithNests sets the candidate nest qualities explicitly (values in [0,1],
// at least one positive).
func WithNests(qualities ...float64) Option {
	return func(c *Config) error {
		if len(qualities) == 0 {
			return errors.New("househunt: WithNests needs at least one nest")
		}
		c.qualities = append([]float64(nil), qualities...)
		return nil
	}
}

// WithBinaryNests sets k candidate nests of which good have quality 1.
func WithBinaryNests(k, good int) Option {
	return func(c *Config) error {
		if k <= 0 || good <= 0 || good > k {
			return fmt.Errorf("househunt: invalid binary nests k=%d good=%d", k, good)
		}
		qs := make([]float64, k)
		for i := 0; i < good; i++ {
			qs[i] = 1
		}
		c.qualities = qs
		return nil
	}
}

// WithAlgorithm selects the algorithm; default AlgorithmSimple.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Config) error {
		c.algorithm = a
		return nil
	}
}

// WithSeed fixes the root random seed; default 1. Equal configurations with
// equal seeds produce identical executions.
func WithSeed(seed uint64) Option {
	return func(c *Config) error {
		c.seed = seed
		return nil
	}
}

// WithMaxRounds bounds the execution; 0 (default) uses a generous budget
// derived from n and k.
func WithMaxRounds(rounds int) Option {
	return func(c *Config) error {
		if rounds < 0 {
			return fmt.Errorf("househunt: negative round budget %d", rounds)
		}
		c.maxRounds = rounds
		return nil
	}
}

// WithStabilityWindow requires the converged state to persist for the given
// number of consecutive rounds before the run is declared solved.
func WithStabilityWindow(rounds int) Option {
	return func(c *Config) error {
		if rounds < 0 {
			return fmt.Errorf("househunt: negative stability window %d", rounds)
		}
		c.stability = rounds
		return nil
	}
}

// WithConcurrentAnts runs every ant as its own goroutine (same semantics and
// randomness as the default sequential engine, validated against it).
func WithConcurrentAnts() Option {
	return func(c *Config) error {
		c.concurrent = true
		return nil
	}
}

// WithTracing records per-round populations and commitments; the Result then
// carries a History and supports CSV export and ASCII plotting.
func WithTracing() Option {
	return func(c *Config) error {
		c.traced = true
		return nil
	}
}

// WithCountNoise perturbs every population reading with unbiased relative
// Gaussian noise of the given standard deviation (§6 approximate counting).
// Forces the noisy variant of AlgorithmSimple.
func WithCountNoise(sigma float64) Option {
	return func(c *Config) error {
		if sigma < 0 {
			return fmt.Errorf("househunt: negative count noise %v", sigma)
		}
		c.countNoise = sigma
		return nil
	}
}

// WithAssessmentFlips makes every quality assessment flip with probability p
// (§6 noisy assessment). Forces the noisy variant of AlgorithmSimple.
func WithAssessmentFlips(p float64) Option {
	return func(c *Config) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("househunt: flip probability %v outside [0,1]", p)
		}
		c.flipP = p
		return nil
	}
}

// WithEncounterRateSensing replaces exact population counts by the
// encounter-rate quorum-sensing estimator (Pratt 2005) with the given number
// of probes per visit and calibration volume. Forces the noisy variant of
// AlgorithmSimple.
func WithEncounterRateSensing(probes int, volume float64) Option {
	return func(c *Config) error {
		if probes <= 0 || volume <= 0 {
			return fmt.Errorf("househunt: invalid encounter sensing probes=%d volume=%v", probes, volume)
		}
		c.encounterEst = &nest.EncounterRateCounter{Probes: probes, Volume: volume}
		return nil
	}
}

// WithCrashFaults crashes the given fraction of the colony at uniformly
// random rounds within the window (§6 fault tolerance).
func WithCrashFaults(fraction float64, window int) Option {
	return func(c *Config) error {
		if fraction < 0 || fraction > 1 {
			return fmt.Errorf("househunt: crash fraction %v outside [0,1]", fraction)
		}
		c.crashFrac = fraction
		c.crashWindow = window
		return nil
	}
}

// WithByzantineAnts replaces the given fraction of the colony by adversaries
// that lure ants toward bad nests (§6 fault tolerance).
func WithByzantineAnts(fraction float64) Option {
	return func(c *Config) error {
		if fraction < 0 || fraction > 1 {
			return fmt.Errorf("househunt: byzantine fraction %v outside [0,1]", fraction)
		}
		c.byzantineFrac = fraction
		return nil
	}
}

// WithIdleAnts starts the given fraction of the colony as a sleeping reserve
// that joins the emigration at uniformly random rounds within the window (the
// idle-pool scenario; see EXPERIMENTS.md E24). Sleeping ants are counted by
// the census, so the colony cannot converge before the reserve wakes.
func WithIdleAnts(fraction float64, window int) Option {
	return func(c *Config) error {
		if fraction < 0 || fraction > 1 {
			return fmt.Errorf("househunt: idle fraction %v outside [0,1]", fraction)
		}
		c.sleepFrac = fraction
		c.sleepWindow = window
		return nil
	}
}

// WithJitter holds each ant independently with probability p per round and
// staggers wake-up by up to maxDelay rounds (§6 asynchrony).
func WithJitter(p float64, maxDelay int) Option {
	return func(c *Config) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("househunt: jitter probability %v outside [0,1)", p)
		}
		if maxDelay < 0 {
			return fmt.Errorf("househunt: negative wake-up delay %d", maxDelay)
		}
		c.jitterP = p
		c.maxDelay = maxDelay
		return nil
	}
}

// WithAdaptiveSchedule tunes AlgorithmAdaptive: the boost-doubling period in
// recruit phases and the boost floor divisor (see internal/algo.AdaptiveAnt).
func WithAdaptiveSchedule(tau int, floorDiv float64) Option {
	return func(c *Config) error {
		if tau < 0 || floorDiv < 0 {
			return fmt.Errorf("househunt: invalid adaptive schedule tau=%d floorDiv=%v", tau, floorDiv)
		}
		c.adaptiveTau = tau
		c.adaptiveFloorDiv = floorDiv
		return nil
	}
}

// WithQuorum tunes AlgorithmQuorum: multiplier scales an ant's initially
// observed nest population into its quorum threshold (must exceed 1; 0 keeps
// the default 1.5), carry is the transport capacity (0 keeps the default 3),
// and docility is the probability a transporter submits to being carried
// away (0 keeps the default 0.25).
func WithQuorum(multiplier float64, carry int, docility float64) Option {
	return func(c *Config) error {
		if multiplier != 0 && multiplier <= 1 {
			return fmt.Errorf("househunt: quorum multiplier %v must exceed 1", multiplier)
		}
		if carry < 0 {
			return fmt.Errorf("househunt: negative transport carry %d", carry)
		}
		if docility < 0 || docility > 1 {
			return fmt.Errorf("househunt: quorum docility %v outside [0,1]", docility)
		}
		c.quorumMultiplier = multiplier
		c.quorumCarry = carry
		c.quorumDocility = docility
		return nil
	}
}

// WithColonySizeError gives each ant of AlgorithmApproxN an independent
// colony-size estimate n·(1+u), u ~ Uniform(−delta, +delta) (§6 "ants know
// only an approximation of n"). delta must lie in [0, 1).
func WithColonySizeError(delta float64) Option {
	return func(c *Config) error {
		if delta < 0 || delta >= 1 {
			return fmt.Errorf("househunt: colony-size error %v outside [0,1)", delta)
		}
		c.nError = delta
		return nil
	}
}

// Colony is a fully configured, runnable house-hunting instance.
type Colony struct {
	cfg Config
}

// New validates options into a runnable Colony.
func New(opts ...Option) (*Colony, error) {
	cfg := Config{algorithm: AlgorithmSimple, seed: 1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.n <= 0 {
		return nil, errors.New("househunt: WithColonySize is required")
	}
	if len(cfg.qualities) == 0 {
		return nil, errors.New("househunt: WithNests or WithBinaryNests is required")
	}
	if _, err := sim.NewEnvironment(cfg.qualities); err != nil {
		return nil, fmt.Errorf("househunt: %w", err)
	}
	if _, err := buildAlgorithm(cfg); err != nil {
		return nil, err
	}
	return &Colony{cfg: cfg}, nil
}

// buildAlgorithm maps the configuration to a core.Algorithm.
func buildAlgorithm(cfg Config) (core.Algorithm, error) {
	noisy := cfg.countNoise > 0 || cfg.flipP > 0 || cfg.encounterEst != nil
	if noisy {
		if cfg.algorithm == AlgorithmQuorum {
			if cfg.countNoise > 0 || cfg.encounterEst != nil {
				return nil, fmt.Errorf("househunt: AlgorithmQuorum supports WithAssessmentFlips only, not count noise")
			}
			return algo.Quorum{
				Multiplier: cfg.quorumMultiplier,
				Carry:      cfg.quorumCarry,
				Docility:   cfg.quorumDocility,
				Assessor:   nest.FlipAssessor{P: cfg.flipP},
			}, nil
		}
		if cfg.algorithm != AlgorithmSimple {
			return nil, fmt.Errorf("househunt: perception noise is only supported with AlgorithmSimple and AlgorithmQuorum, got %q", cfg.algorithm)
		}
		var counter nest.CountEstimator = nest.ExactCounter{}
		if cfg.encounterEst != nil {
			counter = *cfg.encounterEst
		} else if cfg.countNoise > 0 {
			counter = nest.RelativeNoiseCounter{Sigma: cfg.countNoise}
		}
		var assessor nest.Assessor = nest.ExactAssessor{}
		if cfg.flipP > 0 {
			assessor = nest.FlipAssessor{P: cfg.flipP}
		}
		return algo.Noisy{Counter: counter, Assessor: assessor}, nil
	}
	switch cfg.algorithm {
	case AlgorithmOptimal:
		return algo.Optimal{}, nil
	case AlgorithmOptimalLiteral:
		return algo.Optimal{Literal: true}, nil
	case AlgorithmSimple:
		return algo.Simple{}, nil
	case AlgorithmSimplePFSM:
		return algo.SimplePFSM{}, nil
	case AlgorithmAdaptive:
		return algo.Adaptive{Tau: cfg.adaptiveTau, FloorDiv: cfg.adaptiveFloorDiv}, nil
	case AlgorithmQualityAware:
		return algo.QualityAware{}, nil
	case AlgorithmSpreader:
		return algo.Spreader{}, nil
	case AlgorithmQuorum:
		return algo.Quorum{
			Multiplier: cfg.quorumMultiplier,
			Carry:      cfg.quorumCarry,
			Docility:   cfg.quorumDocility,
		}, nil
	case AlgorithmApproxN:
		return algo.ApproxN{Delta: cfg.nError}, nil
	default:
		return nil, fmt.Errorf("househunt: unknown algorithm %q", cfg.algorithm)
	}
}

// Run executes the colony once and reports the result.
func (c *Colony) Run() (*Result, error) {
	env, err := sim.NewEnvironment(c.cfg.qualities)
	if err != nil {
		return nil, fmt.Errorf("househunt: %w", err)
	}
	algorithm, err := buildAlgorithm(c.cfg)
	if err != nil {
		return nil, err
	}

	runCfg := core.RunConfig{
		N:               c.cfg.n,
		Env:             env,
		Seed:            c.cfg.seed,
		MaxRounds:       c.cfg.maxRounds,
		StabilityWindow: c.cfg.stability,
		Concurrent:      c.cfg.concurrent,
	}

	// The fault knobs lower to a declarative faults.Spec; a spec that is the
	// sole wrapper rides on cfg.Wrap directly, keeping the config eligible
	// for the batch engine's fault lanes. Asynchrony remains scalar-only.
	var spec faults.Spec
	if c.cfg.crashFrac > 0 || c.cfg.byzantineFrac > 0 || c.cfg.sleepFrac > 0 {
		spec = faults.Spec{
			CrashFraction:     c.cfg.crashFrac,
			CrashWindow:       c.cfg.crashWindow,
			ByzantineFraction: c.cfg.byzantineFrac,
			SleepFraction:     c.cfg.sleepFrac,
			SleepWindow:       c.cfg.sleepWindow,
			Salt:              1001,
		}
	}
	jitter := async.Plan{HoldP: c.cfg.jitterP, MaxDelay: c.cfg.maxDelay, Salt: 1002}
	jittered := c.cfg.jitterP > 0 || c.cfg.maxDelay > 0
	switch {
	case spec.Enabled() && jittered:
		runCfg.Wrap = core.WrapFunc(func(agents []sim.Agent) ([]sim.Agent, error) {
			agents, err := spec.WrapAgents(c.cfg.seed, agents)
			if err != nil {
				return nil, err
			}
			return jitter.WrapAgents(c.cfg.seed, agents)
		})
	case spec.Enabled():
		runCfg.Wrap = spec
	case jittered:
		runCfg.Wrap = jitter
	}

	var (
		res core.Result
		tr  *trace.Trace
	)
	if c.cfg.traced {
		tr = trace.New(env.K())
		runCfg.Trace = tr
		res, err = core.RunTraced(algorithm, runCfg)
	} else {
		res, err = core.Run(algorithm, runCfg)
	}
	if err != nil {
		return nil, err
	}
	return newResult(res, env, tr), nil
}

// Run is the one-call convenience: configure, validate and execute a colony.
func Run(opts ...Option) (*Result, error) {
	colony, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return colony.Run()
}
