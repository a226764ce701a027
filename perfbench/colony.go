package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
)

// colonySample is one timed colony-large replicate kept for the check, with
// its commitment census at the check round as the timed run's probe saw it.
type colonySample struct {
	ci        int
	seed      uint64
	committed []int
}

// colonyRun runs the colony-large workload. A run is normally one cycle:
// about 330 rounds over the three cells.
type colonyRun struct {
	harness
	cells   []cell
	batches []*sim.Batch
	clock   roundClock
	samples []colonySample
}

func runColony(cfg config) (*report, error) {
	r := &colonyRun{harness: newHarness(cfg)}
	r.clock.checkRound = checkRounds
	var err error
	r.rep.setupS, err = timeSetup(func() error {
		cells, err := colonyCells(colonyK, colonyGood)
		if err != nil {
			return err
		}
		r.cells, r.batches = cells, r.batches[:0]
		for _, c := range cells {
			prog, err := c.compile(cfg.colonyN)
			if err != nil {
				return err
			}
			b, err := sim.NewBatch(c.env, prog, cfg.colonyN, sim.WithBatchProbe(r.clock.probe))
			if err != nil {
				return fmt.Errorf("cell %s: %w", c.name, err)
			}
			r.batches = append(r.batches, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The untimed warm-up op: two rounds of the first cell, which also
	// faults in the lane columns once.
	r.clock.reset(1)
	if _, err := r.batches[0].Run([]uint64{mix(cfg.seed, 2, 1<<32)}, 2, 1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := timedLoop(cfg, 1, r.rep, r.cycle); err != nil {
		return nil, err
	}
	r.check()
	return r.finish(fmt.Sprintf("topology: colony-large n=%d k=%d R=1 lanes×shards=%s",
		cfg.colonyN, colonyK, topology(1, cfg.colonyN)))
}

// cycle runs one replicate of every cell; each round is an op, timed
// between successive probe calls (round 1 from the Batch.Run call).
func (r *colonyRun) cycle(i int) error {
	n := r.cfg.colonyN
	for ci, c := range r.cells {
		seed := mix(r.cfg.seed, 2, uint64(i), uint64(ci))
		r.clock.reset(1)
		raw, err := r.batches[ci].Run([]uint64{seed}, maxRounds, 1)
		d := time.Since(r.clock.start)
		rounds := r.clock.roundUs[0]
		r.rep.opMs = append(r.rep.opMs, ms(r.clock.first[0]))
		for _, u := range rounds {
			r.rep.opMs = append(r.rep.opMs, u/1e3)
		}
		r.rep.attempted += len(rounds) + 1
		if err != nil {
			r.rep.failf(len(rounds)+1, "cycle %d %s: %v", i, c.name, err)
			continue
		}
		res := c.toResult(n, raw[0])
		r.ls.addBatchOp(c.name, n, []core.Result{res}, d, true)
		r.ls.untracedMs += ms(d)
		r.ls.untracedOps += res.Rounds
		if i == 0 {
			r.dig.addResult(seed, res)
			r.samples = append(r.samples, colonySample{ci: ci, seed: seed, committed: r.clock.committed[0]})
		}
		if !r.cfg.trace {
			continue
		}
		got, d, err := r.tracedRun(c, n, []uint64{seed}, nil, "traced "+c.name, i == 0)
		r.ls.tracedMs += ms(d)
		r.ls.tracedOps += res.Rounds
		r.rep.attempted += res.Rounds
		if err != nil {
			r.rep.failf(res.Rounds, "%v", err)
			continue
		}
		r.same("traced "+c.name, []core.Result{res}, got)
	}
	return nil
}

// check replays the first checkRounds rounds of each sampled
// replicate on the scalar engine: core.Run stopped at that round must equal
// the batch engine stopped there, and its commitment census must equal the
// one the timed run's probe saw. A full scalar replay of a million-ant
// colony would take minutes.
func (r *colonyRun) check() {
	n, t := r.cfg.colonyN, checkRounds
	for _, s := range r.samples {
		c := r.cells[s.ci]
		cfg := c.runConfig(n, t)
		cfg.Seed = s.seed
		var clk agentClock
		if r.cfg.trace {
			cfg.Wrap = clk.wrap(c.spec, s.seed)
		}
		scalar, err := core.Run(c.algo, cfg)
		if err != nil {
			r.rep.failf(1, "%s seed %d: scalar replay: %v", c.name, s.seed, err)
			continue
		}
		r.clock.reset(1)
		raw, err := r.batches[s.ci].Run([]uint64{s.seed}, t, 1)
		if err != nil {
			r.rep.failf(1, "%s seed %d: batch replay: %v", c.name, s.seed, err)
			continue
		}
		if batch := c.toResult(n, raw[0]); !reflect.DeepEqual(scalar, batch) || !reflect.DeepEqual(scalar.FinalCensus.Committed, s.committed) {
			r.rep.failf(1, "%s seed %d: round-%d census: scalar %v, batch %v, timed run %v",
				c.name, s.seed, t, scalar.FinalCensus.Committed, batch.FinalCensus.Committed, s.committed)
			continue
		}
		if r.cfg.trace {
			r.ls.foldReplay(c.name, n, &clk, scalar.Rounds)
		}
	}
}
