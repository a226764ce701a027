package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// The traced run reaches every layer through its public hooks only, timing
// the calls from outside: the batch round probe, a matcher decorator, a fault
// schedule decorator, an observer and sink wrapper, and core.WrapFunc agent
// decorators on the scalar replays. All decorators are draw-free, so a traced
// op returns exactly the untraced op's results.

// clockCost is the median cost of reading the clock twice around nothing; the
// decorators subtract it from every interval they time, which matters for
// calls that take tens of nanoseconds.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	samples := make([]float64, 1001)
	for i := range samples {
		start := time.Now()
		samples[i] = float64(time.Since(start))
	}
	return time.Duration(median(samples))
}

// busy is the time since start less the clock's own cost.
func busy(start time.Time) int64 {
	return int64(max(time.Since(start)-clockCost, 0))
}

// timedMatcher decorates the paper's Algorithm 1 pairing for
// sim.WithBatchMatcher. It forwards every optional interface the batch lanes
// probe for — MatchCarry, Captures and Reserve — so a lane runs the same code
// path as with the bare matcher. Each instance serves one lane goroutine.
type timedMatcher struct {
	inner                    *sim.AlgorithmOneMatcher
	ns                       int64
	calls, active, succeeded int64
	callUs                   []float64
}

var (
	_ sim.CarryMatcher  = (*timedMatcher)(nil)
	_ sim.CaptureLister = (*timedMatcher)(nil)
)

func (m *timedMatcher) Name() string      { return m.inner.Name() }
func (m *timedMatcher) Reserve(n int)     { m.inner.Reserve(n) }
func (m *timedMatcher) Captures() []int32 { return m.inner.Captures() }

func (m *timedMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	start := time.Now()
	m.inner.Match(n, active, src, capturedBy, succeeded)
	m.done(start, n, active, succeeded)
}

func (m *timedMatcher) MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool) {
	start := time.Now()
	m.inner.MatchCarry(n, active, carry, src, capturedBy, succeeded)
	m.done(start, n, active, succeeded)
}

func (m *timedMatcher) done(start time.Time, n int, active, succeeded []bool) {
	d := busy(start)
	m.ns += d
	m.calls++
	m.callUs = append(m.callUs, float64(d)/1e3)
	for t := 0; t < n; t++ {
		if active[t] {
			m.active++
		}
		if succeeded[t] {
			m.succeeded++
		}
	}
}

// timedSchedule decorates an adaptive fault schedule returned by a
// faults.Spec.NewSchedule factory; one instance serves one replicate.
type timedSchedule struct {
	inner            faults.Schedule
	ns, calls, faops int64
}

func (s *timedSchedule) Name() string { return s.inner.Name() }

func (s *timedSchedule) Step(v sim.ColonyView, adv *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	start := time.Now()
	ops = s.inner.Step(v, adv, ops)
	s.ns += busy(start)
	s.calls++
	s.faops += int64(len(ops))
	return ops
}

// timedObserver wraps a sim.BatchObserver, timing each lane's ObserveRound.
type timedObserver struct {
	inner sim.BatchObserver
	ls    *layerStats
}

func (o timedObserver) LaneObserver(lane int) sim.LaneObserver {
	l := &timedLane{inner: o.inner.LaneObserver(lane)}
	o.ls.mu.Lock()
	o.ls.lanes = append(o.ls.lanes, l)
	o.ls.mu.Unlock()
	return l
}

type timedLane struct {
	inner     sim.LaneObserver
	ns, calls int64
}

func (l *timedLane) ObserveRound(rep, round int, counts, committed []int) {
	start := time.Now()
	l.inner.ObserveRound(rep, round, counts, committed)
	l.ns += busy(start)
	l.calls++
}

func (l *timedLane) ReplicateDone(rep int, res *sim.BatchResult) { l.inner.ReplicateDone(rep, res) }

// timedSink wraps a trace.Sink; the collector calls it from one goroutine.
type timedSink struct {
	inner     trace.Sink
	ns, calls int64
}

func (s *timedSink) Record(lane int, rep, round int32, row []int32) {
	start := time.Now()
	s.inner.Record(lane, rep, round, row)
	s.ns += busy(start)
	s.calls++
}

// roundClock is a sim.WithBatchProbe target timing rounds between successive
// probe calls of each replicate. A replicate's slots are written only by the
// lane running it and read after Batch.Run returns.
type roundClock struct {
	start   time.Time       // Batch.Run entry
	last    []time.Time     // previous probe per replicate
	first   []time.Duration // Run entry to the round-1 probe per replicate
	roundUs [][]float64     // rounds 2.. per replicate
	// checkRound > 0 keeps each replicate's commitment census at that round.
	checkRound int
	committed  [][]int
}

// reset prepares the clock for a Batch.Run over reps replicates.
func (c *roundClock) reset(reps int) {
	c.last = make([]time.Time, reps)
	c.first = make([]time.Duration, reps)
	c.roundUs = make([][]float64, reps)
	c.committed = make([][]int, reps)
	c.start = time.Now()
}

func (c *roundClock) probe(rep, round int, _, committed []int) {
	now := time.Now()
	if round == 1 {
		c.first[rep] = now.Sub(c.start)
	} else {
		c.roundUs[rep] = append(c.roundUs[rep], us(now.Sub(c.last[rep])))
	}
	c.last[rep] = now
	if round == c.checkRound {
		c.committed[rep] = slices.Clone(committed)
	}
}

// agentSample is the stride of timed ants on a scalar replay: timing every
// Act and Observe would cost more than the calls themselves.
const agentSample = 16

// agentClock times one scalar replay through core.WrapFunc agent
// decorators: round spans between successive Acts of ant 0, the engine span
// from the first Act to the last Observe, and Act+Observe busy time of every
// agentSample-th ant.
type agentClock struct {
	n                 int
	first, roundStart time.Time
	end               time.Time
	roundUs           []float64
	agentNs           int64
}

// wrap returns the decorator for a replay with the given seed, applying the
// cell's fault spec first so the decorators sit outside the fault wrappers.
func (clk *agentClock) wrap(spec *faults.Spec, seed uint64) core.WrapFunc {
	return func(agents []sim.Agent) ([]sim.Agent, error) {
		if spec != nil {
			var err error
			if agents, err = spec.WrapAgents(seed, agents); err != nil {
				return nil, err
			}
		}
		clk.n = len(agents)
		out := make([]sim.Agent, len(agents))
		for i, in := range agents {
			a := &timedAgent{inner: in, clk: clk, idx: i}
			_, decides := in.(core.Decided)
			_, hooked := in.(sim.RoundHooked)
			switch {
			case decides && hooked:
				out[i] = timedHookedDecider{a}
			case decides:
				out[i] = timedDecider{a}
			case hooked:
				out[i] = timedHooked{a}
			default:
				out[i] = a
			}
		}
		return out, nil
	}
}

// engineTime is the replay's span from the first Act to the last Observe.
func (clk *agentClock) engineTime() time.Duration { return clk.end.Sub(clk.first) }

// timedAgent forwards Committer and Faulty (whose absence and a false answer
// mean the same to core.TakeCensus); the variants below add Decided and
// sim.RoundHooked exactly when the wrapped agent implements them, because
// their mere presence changes what the runner and the engine do.
type timedAgent struct {
	inner sim.Agent
	clk   *agentClock
	idx   int
}

func (a *timedAgent) Act(round int) sim.Action {
	if a.idx == 0 {
		now := time.Now()
		if a.clk.first.IsZero() {
			a.clk.first = now
		} else {
			a.clk.roundUs = append(a.clk.roundUs, us(now.Sub(a.clk.roundStart)))
		}
		a.clk.roundStart = now
	}
	if a.idx%agentSample != 0 {
		return a.inner.Act(round)
	}
	start := time.Now()
	act := a.inner.Act(round)
	a.clk.agentNs += busy(start)
	return act
}

func (a *timedAgent) Observe(round int, out sim.Outcome) {
	if a.idx%agentSample == 0 {
		start := time.Now()
		a.inner.Observe(round, out)
		a.clk.agentNs += busy(start)
	} else {
		a.inner.Observe(round, out)
	}
	if a.idx == a.clk.n-1 {
		a.clk.end = time.Now()
	}
}

func (a *timedAgent) Committed() (sim.NestID, bool) {
	if c, ok := a.inner.(core.Committer); ok {
		return c.Committed()
	}
	return sim.Home, false
}

func (a *timedAgent) Faulty() bool {
	f, ok := a.inner.(core.Faulty)
	return ok && f.Faulty()
}

type timedDecider struct{ *timedAgent }

func (a timedDecider) Decided() bool { return a.inner.(core.Decided).Decided() }

type timedHooked struct{ *timedAgent }

func (a timedHooked) RoundHook() sim.RoundHook { return a.inner.(sim.RoundHooked).RoundHook() }

type timedHookedDecider struct{ *timedAgent }

func (a timedHookedDecider) Decided() bool { return a.inner.(core.Decided).Decided() }
func (a timedHookedDecider) RoundHook() sim.RoundHook {
	return a.inner.(sim.RoundHooked).RoundHook()
}

// rate accumulates ant-steps over seconds.
type rate struct{ steps, sec float64 }

func (r rate) perSec() float64 { return ratio(r.steps, r.sec) }

// layerStats gathers a traced run's per-layer samples. Decorator instances
// register under mu (lanes build them concurrently) and are folded after the
// run that used them has returned.
type layerStats struct {
	mu        sync.Mutex
	matchers  []*timedMatcher
	schedules []*timedSchedule
	lanes     []*timedLane
	sinks     []*timedSink

	roundUs, colonyRounds map[string][]float64
	firstRoundMs          []float64
	compileUs, newBatchUs []float64
	roundNs, schedRoundNs float64 // Σ round spans: all, and of replicates with a schedule
	antSteps              rate
	solved, colonies      int
	bareMs, observedMs    float64

	engineRoundUs         map[string][]float64
	batchRate, scalarRate map[string]*rate
	agentNs, engineNs     float64

	tableMs                map[string][]float64
	untracedMs, tracedMs   float64
	untracedOps, tracedOps int
}

func newLayerStats() *layerStats {
	return &layerStats{
		roundUs: map[string][]float64{}, colonyRounds: map[string][]float64{},
		engineRoundUs: map[string][]float64{},
		batchRate:     map[string]*rate{}, scalarRate: map[string]*rate{},
		tableMs: map[string][]float64{},
	}
}

func (ls *layerStats) newMatcher() sim.Matcher {
	m := &timedMatcher{inner: &sim.AlgorithmOneMatcher{}}
	ls.mu.Lock()
	ls.matchers = append(ls.matchers, m)
	ls.mu.Unlock()
	return m
}

// timedCell returns the cell with its adaptive schedule (if any) decorated.
func (ls *layerStats) timedCell(c cell) cell {
	if c.spec == nil || c.spec.NewSchedule == nil {
		return c
	}
	spec := *c.spec
	inner := spec.NewSchedule
	spec.NewSchedule = func() faults.Schedule {
		s := &timedSchedule{inner: inner()}
		ls.mu.Lock()
		ls.schedules = append(ls.schedules, s)
		ls.mu.Unlock()
		return s
	}
	c.spec = &spec
	return c
}

// hookedBatch compiles the cell and builds its batch engine with the probe,
// the timed matcher and, when obs is non-nil, the timed observer attached,
// logging both set-up calls as children of span parent.
func (ls *layerStats) hookedBatch(c cell, n int, clock *roundClock, obs sim.BatchObserver, log *spanLog, parent int) (*sim.Batch, error) {
	c = ls.timedCell(c)
	t0 := time.Now()
	prog, err := c.compile(n)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	opts := []sim.BatchOption{sim.WithBatchMatcher(ls.newMatcher), sim.WithBatchProbe(clock.probe)}
	if obs != nil {
		opts = append(opts, sim.WithBatchObserver(timedObserver{inner: obs, ls: ls}))
	}
	b, err := sim.NewBatch(c.env, prog, n, opts...)
	if err != nil {
		return nil, fmt.Errorf("cell %s: %w", c.name, err)
	}
	t2 := time.Now()
	ls.compileUs = append(ls.compileUs, us(t1.Sub(t0)))
	ls.newBatchUs = append(ls.newBatchUs, us(t2.Sub(t1)))
	log.record(log.newID(), parent, "core.CompileForBatch", t0, t1)
	log.record(log.newID(), parent, "sim.NewBatch", t1, t2)
	return b, nil
}

// foldRounds adds one hooked Batch.Run's round spans for cell c; counted
// marks the fixed prefix of ops whose colony counts must repeat exactly.
func (ls *layerStats) foldRounds(c cell, clock *roundClock, res []core.Result, counted bool) {
	firstMs := 0.0
	for rep, rounds := range clock.roundUs {
		ls.roundUs[c.name] = append(ls.roundUs[c.name], rounds...)
		var sum float64
		for _, r := range rounds {
			sum += r * 1e3
		}
		ls.roundNs += sum
		if c.spec != nil && c.spec.NewSchedule != nil {
			ls.schedRoundNs += sum
		}
		if f := ms(clock.first[rep]); rep == 0 || f < firstMs {
			firstMs = f
		}
		if counted {
			ls.colonyRounds[c.name] = append(ls.colonyRounds[c.name], float64(res[rep].Rounds))
			ls.colonies++
			if res[rep].Solved {
				ls.solved++
			}
		}
	}
	ls.firstRoundMs = append(ls.firstRoundMs, firstMs)
}

// addBatchOp credits an untraced batch op of cell c with its ant-steps; the
// bare ops also set the batch side of the cell's scalar speedup.
func (ls *layerStats) addBatchOp(c string, n int, res []core.Result, d time.Duration, bare bool) {
	steps := 0.0
	for _, r := range res {
		steps += float64(r.Rounds) * float64(n)
	}
	if bare {
		addRate(ls.batchRate, c, steps, d)
	}
	ls.antSteps.steps += steps
	ls.antSteps.sec += d.Seconds()
}

// foldReplay adds one decorated scalar replay of cell c over n ants.
func (ls *layerStats) foldReplay(c string, n int, clk *agentClock, rounds int) {
	ls.engineRoundUs[c] = append(ls.engineRoundUs[c], clk.roundUs...)
	et := clk.engineTime()
	ls.agentNs += float64(clk.agentNs) * agentSample
	ls.engineNs += float64(et)
	addRate(ls.scalarRate, c, float64(rounds)*float64(n), et)
}

func addRate(m map[string]*rate, c string, steps float64, d time.Duration) {
	r := m[c]
	if r == nil {
		r = &rate{}
		m[c] = r
	}
	r.steps += steps
	r.sec += d.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSpec names a printed metric and its unit.
type metricSpec struct{ name, unit string }

// perLayer lists the traced run's metrics. Every workload prints all of
// them; a layer or cell the workload never runs reads 0.
func perLayer() []metricSpec {
	var m []metricSpec
	for _, c := range cellNames {
		m = append(m,
			metricSpec{"sim.batch.round_us_p50." + c, "us"},
			metricSpec{"sim.batch.round_us_p90." + c, "us"},
			metricSpec{"sim.batch.rounds_per_colony." + c, "count"})
	}
	m = append(m,
		metricSpec{"sim.batch.first_round_ms", "ms"},
		metricSpec{"sim.batch.ant_steps_per_s", "1/s"},
		metricSpec{"sim.batch.solved_frac", "ratio"},
		metricSpec{"core.compile_us", "us"},
		metricSpec{"sim.batch.newbatch_us", "us"},
		metricSpec{"sim.matcher.match_us_p50", "us"},
		metricSpec{"sim.matcher.share", "ratio"},
		metricSpec{"sim.matcher.recruiters_per_round", "count"},
		metricSpec{"sim.matcher.success_ratio", "ratio"},
		metricSpec{"faults.schedule_step_us", "us"},
		metricSpec{"faults.share", "ratio"},
		metricSpec{"faults.ops_per_round", "count"},
		metricSpec{"trace.observe_round_ns", "ns"},
		metricSpec{"trace.sink_record_ns", "ns"},
		metricSpec{"trace.obs_overhead", "ratio"},
		metricSpec{"algo.agent_share", "ratio"},
		metricSpec{"bench.trace_overhead", "ratio"})
	for _, c := range cellNames {
		m = append(m,
			metricSpec{"sim.engine.round_us_p50." + c, "us"},
			metricSpec{"sim.engine.speedup." + c, "ratio"})
	}
	for _, id := range experiment.IDs() {
		m = append(m, metricSpec{"experiment.table_ms." + id, "ms"})
	}
	return m
}

// metrics reduces the samples to the perLayer values.
func (ls *layerStats) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, c := range cellNames {
		m["sim.batch.round_us_p50."+c] = median(ls.roundUs[c])
		m["sim.batch.round_us_p90."+c] = tail(ls.roundUs[c])
		m["sim.batch.rounds_per_colony."+c] = mean(ls.colonyRounds[c])
		m["sim.engine.round_us_p50."+c] = median(ls.engineRoundUs[c])
		var batch, scalar rate
		if r := ls.batchRate[c]; r != nil {
			batch = *r
		}
		if r := ls.scalarRate[c]; r != nil {
			scalar = *r
		}
		m["sim.engine.speedup."+c] = ratio(batch.perSec(), scalar.perSec())
	}
	m["sim.batch.first_round_ms"] = median(ls.firstRoundMs)
	m["sim.batch.ant_steps_per_s"] = ls.antSteps.perSec()
	m["sim.batch.solved_frac"] = ratio(float64(ls.solved), float64(ls.colonies))
	m["core.compile_us"] = median(ls.compileUs)
	m["sim.batch.newbatch_us"] = median(ls.newBatchUs)

	var matchUs []float64
	var matchNs, calls, active, succeeded float64
	for _, mt := range ls.matchers {
		matchUs = append(matchUs, mt.callUs...)
		matchNs += float64(mt.ns)
		calls += float64(mt.calls)
		active += float64(mt.active)
		succeeded += float64(mt.succeeded)
	}
	m["sim.matcher.match_us_p50"] = median(matchUs)
	m["sim.matcher.share"] = ratio(matchNs, ls.roundNs)
	m["sim.matcher.recruiters_per_round"] = ratio(active, calls)
	m["sim.matcher.success_ratio"] = ratio(succeeded, active)

	var schedNs, steps, fops float64
	for _, s := range ls.schedules {
		schedNs += float64(s.ns)
		steps += float64(s.calls)
		fops += float64(s.faops)
	}
	m["faults.schedule_step_us"] = ratio(schedNs, steps) / 1e3
	m["faults.share"] = ratio(schedNs, ls.schedRoundNs)
	m["faults.ops_per_round"] = ratio(fops, steps)

	var obsNs, obsCalls, sinkNs, sinkCalls float64
	for _, l := range ls.lanes {
		obsNs += float64(l.ns)
		obsCalls += float64(l.calls)
	}
	for _, s := range ls.sinks {
		sinkNs += float64(s.ns)
		sinkCalls += float64(s.calls)
	}
	m["trace.observe_round_ns"] = ratio(obsNs, obsCalls)
	m["trace.sink_record_ns"] = ratio(sinkNs, sinkCalls)
	m["trace.obs_overhead"] = ratio(ls.observedMs, ls.bareMs)
	m["algo.agent_share"] = ratio(ls.agentNs, ls.engineNs)
	m["bench.trace_overhead"] = ratio(ratio(float64(ls.untracedOps), ls.untracedMs), ratio(float64(ls.tracedOps), ls.tracedMs))
	for _, id := range experiment.IDs() {
		m["experiment.table_ms."+id] = median(ls.tableMs[id])
	}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
