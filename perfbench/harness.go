package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
)

// harness is the state every workload run shares: what it reports, the
// digest of its results and, for a traced run, its layer samples and spans.
type harness struct {
	cfg config
	rep *report
	dig *digest
	ls  *layerStats
	log *spanLog
}

func newHarness(cfg config) harness {
	return harness{cfg: cfg, rep: &report{}, dig: newDigest(), ls: newLayerStats(), log: newSpanLog()}
}

// finish stamps the report and, for a traced run, reduces the layer samples
// and writes the spans out.
func (h harness) finish(info ...string) (*report, error) {
	h.rep.digest = h.dig.sum()
	h.rep.info = info
	if !h.cfg.trace {
		return h.rep, nil
	}
	h.rep.layers = h.ls.metrics()
	return h.rep, writeSpans(h.cfg.spans, h.log.spans)
}

// tracedRun builds the cell's batch engine with every hook attached and runs
// seeds through it under a top-level span called name; counted marks the
// fixed prefix of ops. The caller owns obs and closes its collector.
func (h harness) tracedRun(c cell, n int, seeds []uint64, obs sim.BatchObserver, name string, counted bool) ([]core.Result, time.Duration, error) {
	id := h.log.newID()
	start := time.Now()
	clock := &roundClock{}
	b, err := h.ls.hookedBatch(c, n, clock, obs, h.log, id)
	if err != nil {
		return nil, 0, err
	}
	runStart := time.Now()
	clock.reset(len(seeds))
	raw, err := b.Run(seeds, maxRounds, 1)
	end := time.Now()
	h.log.record(h.log.newID(), id, "sim.Batch.Run", runStart, end)
	h.log.record(id, 0, name, start, end)
	if err != nil {
		return nil, end.Sub(start), fmt.Errorf("%s: %w", name, err)
	}
	got := make([]core.Result, len(raw))
	for r, br := range raw {
		got[r] = c.toResult(n, br)
	}
	h.ls.foldRounds(c, clock, got, counted)
	return got, end.Sub(start), nil
}

// replay is one batch replicate kept for the scalar output check.
type replay struct {
	c    cell
	seed uint64
	want core.Result
	op   string
}

// replayAll runs each sampled batch replicate through core.Run with the same
// seed and counts every result that differs as a failed op; a traced run
// times the replays through agent decorators.
func (h harness) replayAll(replays []replay, n int) {
	for _, rp := range replays {
		cfg := rp.c.runConfig(n, maxRounds)
		cfg.Seed = rp.seed
		var clk agentClock
		if h.cfg.trace {
			cfg.Wrap = clk.wrap(rp.c.spec, rp.seed)
		}
		got, err := core.Run(rp.c.algo, cfg)
		switch {
		case err != nil:
			h.rep.failf(1, "%s: scalar replay of seed %d: %v", rp.op, rp.seed, err)
		case !reflect.DeepEqual(got, rp.want):
			h.rep.failf(1, "%s: seed %d: batch %+v, scalar %+v", rp.op, rp.seed, rp.want, got)
		case h.cfg.trace:
			h.ls.foldReplay(rp.c.name, n, &clk, got.Rounds)
		}
	}
}

// same counts an op whose results differ from its reference as failed.
func (h harness) same(op string, want, got []core.Result) {
	if !reflect.DeepEqual(want, got) {
		h.rep.failf(1, "%s: results differ from the untraced bare op", op)
	}
}

// topology is the lanes×shards split Batch.Run documents for a worker
// budget: one lane per replicate up to the budget, the surplus as shards of
// at least 1024 ants each.
func topology(reps, n int) string {
	workers := runtime.GOMAXPROCS(0)
	lanes := min(workers, reps)
	shards := max(1, min(workers/lanes, n/1024))
	return fmt.Sprintf("%dx%d", lanes, shards)
}

// Set-up runs setupWarm times untimed, so lazy initialisation is done, and
// is then sampled in setupBursts bursts of up to setupBurst back-to-back
// runs, setupPause apart; it is reported as the median sample. A set-up of
// a few microseconds reads about twice as slow in some bursts as in others
// on a shared host, depending on where and when it runs, so one burst alone
// would make the reported median flip between the two from run to run. A
// slow set-up ends each burst (and the warm-up) after setupBudget.
const (
	setupWarm   = 10
	setupBursts = 12
	setupBurst  = 17
	setupPause  = 100 * time.Millisecond
	setupBudget = 100 * time.Millisecond
)

// timeSetup runs setup repeatedly and returns each timed run's seconds.
func timeSetup(setup func() error) ([]float64, error) {
	var samples []float64
	burst := func(count int, timed bool) error {
		begin := time.Now()
		for i := 0; i < count && (i == 0 || time.Since(begin) < setupBudget); i++ {
			start := time.Now()
			if err := setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if timed {
				samples = append(samples, time.Since(start).Seconds())
			}
		}
		return nil
	}
	if err := burst(setupWarm, false); err != nil {
		return nil, err
	}
	for b := 0; b < setupBursts; b++ {
		if b > 0 {
			time.Sleep(setupPause)
		}
		if err := burst(setupBurst, true); err != nil {
			return nil, err
		}
	}
	return samples, nil
}

// timedLoop runs cycles until the measured seconds are up, and always at
// least minCycles of them, recording the loop's wall time, its allocation
// and the peak RSS so far (before the output check's scalar replays).
func timedLoop(cfg config, minCycles int, rep *report, cycle func(int) error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < limit; i++ {
		if err := cycle(i); err != nil {
			return err
		}
	}
	rep.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	rep.allocs = after.TotalAlloc - before.TotalAlloc
	rep.peakRSSMB = peakRSSMB()
	return nil
}
