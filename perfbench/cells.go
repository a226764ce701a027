package main

import (
	"fmt"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/workload"
)

// cell is one benchmarked configuration: an algorithm, its landscape and an
// optional adversary (a faults.Spec, which both engines lower identically).
type cell struct {
	name string
	algo core.Algorithm
	env  sim.Environment
	spec *faults.Spec
}

// cellNames is the sweep inventory, in cycle order; hhbench -batchbench
// times the same configurations. colony-large runs the first, fourth and
// second of them.
var cellNames = []string{
	"simple", "optimal", "adaptive", "quality", "approxn", "quorum", "noisy",
	"simple-crash10", "simple-targeted",
}

// sweepCells builds the nine sweep-small cells on one binary landscape.
func sweepCells(k, good int) ([]cell, error) {
	env, err := workload.Binary(k, good)
	if err != nil {
		return nil, fmt.Errorf("sweep landscape: %w", err)
	}
	crash := faults.Spec{CrashFraction: 0.1, CrashWindow: 64, Salt: 6001}
	targeted := faults.Spec{Salt: 6002, NewSchedule: func() faults.Schedule {
		return &faults.TargetedCrash{PerRound: 1, Budget: 10}
	}}
	return []cell{
		{name: "simple", algo: algo.Simple{}, env: env},
		{name: "optimal", algo: algo.Optimal{}, env: env},
		{name: "adaptive", algo: algo.Adaptive{}, env: env},
		{name: "quality", algo: algo.QualityAware{}, env: env},
		{name: "approxn", algo: algo.ApproxN{Delta: 0.2}, env: env},
		{name: "quorum", algo: algo.Quorum{}, env: env},
		{name: "noisy", algo: algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}, env: env},
		{name: "simple-crash10", algo: algo.Simple{}, env: env, spec: &crash},
		{name: "simple-targeted", algo: algo.Simple{}, env: env, spec: &targeted},
	}, nil
}

// colonyCells builds the three colony-large cells: Algorithm 3 on a binary
// landscape (lockstep stepper), the §6 quality extension on a quality ladder
// (lockstep, quality-weighted draws) and Algorithm 2 (general stepper).
func colonyCells(k, good int) ([]cell, error) {
	bin, err := workload.Binary(k, good)
	if err != nil {
		return nil, fmt.Errorf("colony landscape: %w", err)
	}
	ladder, err := workload.QualityLadder(k, 0.2, 0.9)
	if err != nil {
		return nil, fmt.Errorf("colony ladder: %w", err)
	}
	return []cell{
		{name: "simple", algo: algo.Simple{}, env: bin},
		{name: "quality", algo: algo.QualityAware{}, env: ladder},
		{name: "optimal", algo: algo.Optimal{}, env: bin},
	}, nil
}

// runConfig is the cell's core configuration for n-ant colonies.
func (c cell) runConfig(n, maxRounds int) core.RunConfig {
	cfg := core.RunConfig{N: n, Env: c.env, MaxRounds: maxRounds}
	if c.spec != nil {
		cfg.Wrap = *c.spec
	}
	return cfg
}

// compile lowers the cell for the batch engine; a decline is an error here,
// because every benchmarked cell must stay on the batch path.
func (c cell) compile(n int) (sim.Program, error) {
	prog, ok, reason := core.CompileForBatch(c.algo, c.runConfig(n, maxRounds))
	if !ok {
		return sim.Program{}, fmt.Errorf("cell %s fell off the batch path: %s", c.name, reason)
	}
	return prog, nil
}

// toResult converts a batch replicate to the core.Result the scalar runner
// reports, field for field as core.RunBatch does.
func (c cell) toResult(n int, r sim.BatchResult) core.Result {
	return core.Result{
		Solved:        r.Solved,
		Winner:        r.Winner,
		WinnerQuality: r.WinnerQuality,
		Rounds:        r.Rounds,
		FinalCensus: core.Census{
			Committed: r.Committed,
			Decided:   r.Decided,
			Faulty:    r.Faulty,
			Total:     n - r.Faulty,
		},
		Algorithm: c.algo.Name(),
	}
}
