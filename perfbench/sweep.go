package main

import (
	"fmt"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// sweepPrefix is the fixed prefix of cycles every run completes whatever
// its length; the digest, the colony counts and the scalar check sample
// cover exactly these cycles, so they repeat for a given seed.
const sweepPrefix = 2

// ringSlots sizes each telemetry lane ring, as the experiment harness does.
const ringSlots = 256

// sweeper runs the sweep-small workload.
type sweeper struct {
	harness
	cells   []cell
	replays []replay
}

func runSweep(cfg config) (*report, error) {
	s := &sweeper{harness: newHarness(cfg)}
	// Set-up generates the cells and compiles and builds each one's batch
	// engine once, which proves every cell batch-eligible; the ops themselves
	// go through core.RunBatch, which repeats both steps on its own clock.
	var err error
	s.rep.setupS, err = timeSetup(func() error {
		cells, err := sweepCells(sweepK, sweepGood)
		if err != nil {
			return err
		}
		s.cells = cells
		for _, c := range cells {
			prog, err := c.compile(cfg.sweepN)
			if err != nil {
				return err
			}
			if _, err := sim.NewBatch(c.env, prog, cfg.sweepN); err != nil {
				return fmt.Errorf("cell %s: %w", c.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The untimed warm-up op: one bare sweep of the first cell.
	if _, _, err := core.RunBatch(s.cells[0].algo, s.cells[0].runConfig(cfg.sweepN, maxRounds), s.seeds(1<<32, 0)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := timedLoop(cfg, sweepPrefix, s.rep, s.cycle); err != nil {
		return nil, err
	}
	s.replayAll(s.replays, cfg.sweepN)
	return s.finish(fmt.Sprintf("topology: sweep-small n=%d k=%d R=%d lanes×shards=%s",
		cfg.sweepN, sweepK, cfg.sweepReps, topology(cfg.sweepReps, cfg.sweepN)))
}

// seeds derives one op's replicate seeds from the workload seed.
func (s *sweeper) seeds(cycle, cellIdx int) []uint64 {
	seeds := make([]uint64, s.cfg.sweepReps)
	for r := range seeds {
		seeds[r] = mix(s.cfg.seed, 1, uint64(cycle), uint64(cellIdx), uint64(r))
	}
	return seeds
}

// cycle sweeps every cell twice, bare and observed, on the same seeds; a
// traced run follows each untraced sweep with its hooked twin.
func (s *sweeper) cycle(i int) error {
	n := s.cfg.sweepN
	for ci, c := range s.cells {
		seeds := s.seeds(i, ci)
		cfg := c.runConfig(n, maxRounds)
		opName := fmt.Sprintf("cycle %d %s", i, c.name)

		start := time.Now()
		bare, ok, err := core.RunBatch(c.algo, cfg, seeds)
		bareD := time.Since(start)
		s.op(bareD)
		if !s.valid(opName+" bare", ok, err) {
			continue
		}
		s.ls.addBatchOp(c.name, n, bare, bareD, true)

		sink := newEndSink(len(seeds))
		start = time.Now()
		observed, ok, err := runObserved(c, cfg, seeds, sink)
		obsD := time.Since(start)
		s.op(obsD)
		if s.valid(opName+" observed", ok, err) {
			s.ls.addBatchOp(c.name, n, observed, obsD, false)
			s.same(opName+" observed", bare, observed)
			if err := sink.verify(observed); err != nil {
				s.rep.failf(1, "%s observed: %v", opName, err)
			}
		}
		s.ls.bareMs += ms(bareD)
		s.ls.observedMs += ms(obsD)
		s.ls.untracedMs += ms(bareD + obsD)
		s.ls.untracedOps += 2

		if i < sweepPrefix {
			for r, res := range bare {
				s.dig.addResult(seeds[r], res)
			}
			last := len(seeds) - 1
			s.replays = append(s.replays,
				replay{c: c, seed: seeds[0], want: bare[0], op: opName},
				replay{c: c, seed: seeds[last], want: bare[last], op: opName})
		}
		if s.cfg.trace {
			if err := s.traced(c, seeds, bare, opName, i < sweepPrefix); err != nil {
				return err
			}
		}
	}
	return nil
}

// op records one untraced op's latency.
func (s *sweeper) op(d time.Duration) {
	s.rep.opMs = append(s.rep.opMs, ms(d))
	s.rep.attempted++
}

// valid counts an op that errored or fell off the batch path as failed.
func (s *sweeper) valid(op string, ok bool, err error) bool {
	switch {
	case err != nil:
		s.rep.failf(1, "%s: %v", op, err)
	case !ok:
		s.rep.failf(1, "%s: fell off the batch path", op)
	default:
		return true
	}
	return false
}

// traced reruns one op's bare and observed sweeps with every hook attached;
// only the bare twin counts toward the colony counts.
func (s *sweeper) traced(c cell, seeds []uint64, want []core.Result, opName string, counted bool) error {
	for _, observe := range []bool{false, true} {
		name := "traced " + opName
		var sink *endSink
		var coll *trace.Collector
		var obs sim.BatchObserver
		if observe {
			name += " observed"
			sink = newEndSink(len(seeds))
			ts := &timedSink{inner: sink}
			s.ls.sinks = append(s.ls.sinks, ts)
			var err error
			if coll, obs, err = streamTo(c, ts); err != nil {
				return err
			}
		}
		got, d, err := s.tracedRun(c, s.cfg.sweepN, seeds, obs, name, counted && !observe)
		if coll != nil {
			coll.Close()
		}
		s.ls.tracedMs += ms(d)
		s.ls.tracedOps++
		s.rep.attempted++
		if err != nil {
			s.rep.failf(1, "%v", err)
			continue
		}
		s.same(name, want, got)
		if sink != nil {
			if err := sink.verify(got); err != nil {
				s.rep.failf(1, "%s: %v", name, err)
			}
		}
	}
	return nil
}

// runObserved is core.RunBatchObserved with a StreamObserver over a
// collector feeding sink.
func runObserved(c cell, cfg core.RunConfig, seeds []uint64, sink *endSink) ([]core.Result, bool, error) {
	coll, obs, err := streamTo(c, sink)
	if err != nil {
		return nil, false, err
	}
	res, ok, err := core.RunBatchObserved(c.algo, cfg, seeds, obs)
	coll.Close()
	return res, ok, err
}

// streamTo builds a collector draining into sink and the StreamObserver
// feeding it.
func streamTo(c cell, sink trace.Sink) (*trace.Collector, sim.BatchObserver, error) {
	k := c.env.K()
	coll, err := trace.NewCollector(sim.StreamRowWidth(k), ringSlots, sink)
	if err != nil {
		return nil, nil, err
	}
	obs, err := sim.NewStreamObserver(coll, k)
	if err != nil {
		coll.Close()
		return nil, nil, err
	}
	return coll, obs, nil
}

// endSink keeps what the telemetry stream said about each replicate: its
// round records and its end marker, for comparison with the results.
type endSink struct {
	rounds []int
	ends   [][4]int
}

func newEndSink(reps int) *endSink {
	return &endSink{rounds: make([]int, reps), ends: make([][4]int, reps)}
}

func (s *endSink) Record(_ int, rep, round int32, row []int32) {
	if round != sim.StreamEndRound {
		s.rounds[rep]++
		return
	}
	solved, rounds, winner, faulty := sim.DecodeStreamEnd(row)
	s.ends[rep] = [4]int{int(boolWord(solved)), rounds, int(winner), faulty}
}

// verify checks the stream against the replicates' results.
func (s *endSink) verify(res []core.Result) error {
	for rep, r := range res {
		want := [4]int{int(boolWord(r.Solved)), r.Rounds, int(r.Winner), r.FinalCensus.Faulty}
		if s.ends[rep] != want || s.rounds[rep] != r.Rounds {
			return fmt.Errorf("replicate %d streamed %d rounds and end %v, result says %v", rep, s.rounds[rep], s.ends[rep], want)
		}
	}
	return nil
}
