package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
)

// suitePasses is the number of passes an untraced run always completes, so
// the median pass is a sample. A traced run needs only the first pass, which
// carries the digest.
const suitePasses = 5

// suiteCheckReps is the number of replicates per reference cell that the
// paper-suite check runs on both engines.
const suiteCheckReps = 2

// suiteRun runs the paper-suite workload.
type suiteRun struct {
	harness
	ids   []string
	cells []cell
}

func runSuite(cfg config) (*report, error) {
	r := &suiteRun{harness: newHarness(cfg)}
	// Set-up lists the tables and generates and compiles the reference cells
	// the check sweeps.
	var err error
	r.rep.setupS, err = timeSetup(func() error {
		r.ids = cfg.suiteIDs
		if r.ids == nil {
			r.ids = experiment.IDs()
		}
		cells, err := sweepCells(sweepK, sweepGood)
		if err != nil {
			return err
		}
		r.cells = cells
		for _, c := range cells {
			if _, err := c.compile(cfg.sweepN); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The untimed warm-up op: the first table.
	if _, err := experiment.RunExperiment(r.ids[0], experiment.ScaleSmall); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	passes := suitePasses
	if cfg.trace {
		passes = 1
	}
	if err := timedLoop(cfg, passes, r.rep, r.pass); err != nil {
		return nil, err
	}
	r.check()
	return r.finish(
		"inputs: the tables' inputs are fixed by the experiments' own tags; --seed reaches only the reference-cell check",
		fmt.Sprintf("topology: paper-suite tables at ScaleSmall, GOMAXPROCS=%d; reference cells n=%d k=%d R=%d lanes×shards=%s",
			runtime.GOMAXPROCS(0), cfg.sweepN, sweepK, suiteCheckReps, topology(suiteCheckReps, cfg.sweepN)))
}

// pass is one op: it regenerates every table once. A traced run then
// regenerates each table a second time under a span, outside the op's time,
// and requires the same report.
func (r *suiteRun) pass(i int) error {
	var passMs float64
	for _, id := range r.ids {
		start := time.Now()
		want, err := experiment.RunExperiment(id, experiment.ScaleSmall)
		d := time.Since(start)
		passMs += ms(d)
		r.rep.attempted++
		r.ls.untracedMs += ms(d)
		r.ls.untracedOps++
		switch {
		case err != nil:
			r.rep.failf(1, "pass %d %s: %v", i, id, err)
			continue
		case !want.Pass:
			r.rep.failf(1, "pass %d %s: shape violated\n%s", i, id, want)
		}
		if i == 0 {
			r.dig.addString(want.String())
		}
		if !r.cfg.trace {
			continue
		}
		start = time.Now()
		got, err := experiment.RunExperiment(id, experiment.ScaleSmall)
		end := time.Now()
		r.log.record(r.log.newID(), 0, "experiment.RunExperiment "+id, start, end)
		r.ls.tableMs[id] = append(r.ls.tableMs[id], ms(end.Sub(start)))
		r.ls.tracedMs += ms(end.Sub(start))
		r.ls.tracedOps++
		r.rep.attempted++
		if err != nil || got.String() != want.String() {
			r.rep.failf(1, "traced pass %d %s: report differs from the untraced one (%v)", i, id, err)
		}
	}
	r.rep.opMs = append(r.rep.opMs, passMs)
	return nil
}

// check sweeps suiteCheckReps seeded replicates of every reference cell on
// the batch engine and replays them through core.Run, the engine pairing
// whose cost ratio the scalar-heavy tables depend on. A traced run adds the
// hooked batch sweep and times the replays.
func (r *suiteRun) check() {
	n := r.cfg.sweepN
	var replays []replay
	for ci, c := range r.cells {
		seeds := make([]uint64, suiteCheckReps)
		for k := range seeds {
			seeds[k] = mix(r.cfg.seed, 3, uint64(ci), uint64(k))
		}
		name := "reference " + c.name
		start := time.Now()
		res, ok, err := core.RunBatch(c.algo, c.runConfig(n, maxRounds), seeds)
		d := time.Since(start)
		switch {
		case err != nil:
			r.rep.failf(1, "%s: %v", name, err)
			continue
		case !ok:
			r.rep.failf(1, "%s: fell off the batch path", name)
			continue
		}
		r.ls.addBatchOp(c.name, n, res, d, true)
		for k, s := range seeds {
			r.dig.addResult(s, res[k])
			replays = append(replays, replay{c: c, seed: s, want: res[k], op: name})
		}
		if r.cfg.trace {
			got, _, err := r.tracedRun(c, n, seeds, nil, "traced "+name, true)
			if err != nil {
				r.rep.failf(1, "%v", err)
				continue
			}
			r.same("traced "+name, res, got)
		}
	}
	r.replayAll(replays, n)
}
