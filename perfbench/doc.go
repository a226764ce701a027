// Command perfbench is the repository benchmark: it measures what simulating
// house-hunting colonies costs, end to end and layer by layer, and checks the
// simulations' outputs while it does.
//
// Run it from the repository root through its build script, which compiles it
// from source into .bench_build/:
//
//	bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics by name with their units. The lines before it stamp
// the host (nproc, GOMAXPROCS, Go version, CPU model), the lanes×shards
// topology the workload ran and a digest of its results. GOMAXPROCS is capped
// at 2, so a larger host runs the same topology as the 2-core reference host.
// It is one process; its self-tests run with `go test` in this directory.
//
// # Workloads
//
// All three are closed loops: one op at a time, the next starting when the
// previous one ends. A run times ops until --seconds have passed, in whole
// cycles of its inventory, and always completes a fixed prefix of cycles; the
// digest, the colony counts and the output check cover that prefix only, so
// they repeat exactly for a given seed.
//
//   - sweep-small: many small colonies. One op is one R=32 replicate sweep at
//     n=1024, k=4 (2 good nests), cycling nine cells — simple, optimal,
//     adaptive, quality, approxn, quorum, noisy, simple-crash10 and
//     simple-targeted, the configurations hhbench -batchbench times. Each
//     cell is swept bare through core.RunBatch and then observed through
//     core.RunBatchObserved on the same seeds, with a sim.StreamObserver
//     feeding a trace.Collector. Why: replicate lanes carry the parallelism
//     and every lane has one shard, so the per-round fixed costs (census,
//     matcher, schedule pass, observer push) weigh most here; both steppers,
//     the popT table kernel and the Recip quality kernel all run; and each
//     observed sweep is the telemetry-writing twin of a bare one, so a
//     telemetry gain or cost shows against its own reference.
//   - colony-large: one huge colony. Single replicates at n=10^6, k=16
//     cycle through simple (binary, 2 good nests), quality (a quality ladder)
//     and optimal (binary), each through core.CompileForBatch and sim.NewBatch
//     at the default worker budget. One op is one round, timed between
//     successive sim.WithBatchProbe calls (round 1 from the Batch.Run call).
//     Why: with no replicate parallelism the shards split the per-ant loops
//     while the environment and matcher draws stay on the sequential spine;
//     n is above the 2^16 popT crossover, so every draw takes the rng.Recip
//     path; the lane columns (about 95 MB per replicate) dwarf the per-core
//     caches; and both the lockstep stepper (simple, quality) and the general
//     stepper (optimal) run at scale. It runs with --workload colony-large
//     but is not among BENCHMARK.json's workloads: on the 2-vCPU reference
//     host its spread over ten seeds (IQR over median) reached 0.35 on
//     op_ms_p90 and 0.30 on ops_per_s, beyond the 0.25 bound, in a period
//     when sweep-small stayed under 0.1; its rounds stream ~95 MB of columns,
//     which makes them the most exposed to the host's neighbours.
//   - paper-suite: one op is one whole pass of
//     experiment.RunExperiment(id, ScaleSmall) for E1…E27, and an untraced
//     run makes at least five. The op is the pass, not the table, because
//     the tables' times span three orders of magnitude (about 2 ms to 1.5 s
//     on the reference host): the median of per-table times is the time of
//     whichever table happens to sit in the middle, and over ten runs its
//     interquartile range reached 29–45% of its median, while the passes of
//     one run stay within about ±6% of each other. Each table's own time
//     is the per-layer experiment.table_ms.<id>, and attempted counts table
//     regenerations, each checked for Pass. Why: it is the job
//     researchers run, and the only workload where the scalar engine and the
//     experiment orchestration carry most of the time — E13, E14, E18 and E20
//     hand-roll core.Run loops, E1 and E5 drive sim.Engine probes — so
//     rerouting those onto the batch engine can show here and nowhere else.
//     The tables' inputs are fixed by the experiments' own tags: --seed does
//     not reach them, only the reference-cell check below.
//
// # Output check
//
// An op fails when it errors, falls off the batch path, or disagrees with
// its reference, and the failed count is printed against the attempted one.
// Every observed sweep must return its bare twin's results and stream one
// record per round and an end marker matching each result. Outside the timed
// loop, sampled replicates are replayed through core.Run with the same seed
// and must equal the batch core.Result: two per sweep-small op of the prefix;
// the first three rounds of every colony-large replicate of the prefix (a
// full scalar replay of 10^6 ants takes minutes), whose round-3 census must
// also equal the one the timed run's probe saw; and two seeded replicates per
// sweep cell for paper-suite, which also requires every table's Pass.
//
// # Metrics
//
// An untraced run (--trace 0) prints the end-to-end metrics: setup_s (the
// median of 204 set-ups taken in bursts over about a second — input
// generation plus CompileForBatch and NewBatch for every cell; the warm-up
// op is excluded), ops_per_s, op_ms_p50,
// op_ms_p90 (the highest percentile up to the 90th with ten samples beyond
// it, and never below the median: on paper-suite, whose few passes leave no
// ten samples beyond any percentile above it, it reads the median pass),
// alloc_bytes_per_op (TotalAlloc over the timed loop per op) and
// peak_rss_mb (the process's VmHWM, read before the output check). Every
// end-to-end metric is defined on every workload and is never 0, so the
// failed-op share is carried by the attempted and failed counts, and the
// batch-only ant-steps/s and solved share are per-layer metrics
// (sim.batch.ant_steps_per_s, sim.batch.solved_frac).
//
// A traced run (--trace 1) prints the per-layer metrics. It repeats every op
// with the layers' public hooks attached, from outside: sim.WithBatchProbe
// for round spans, a sim.WithBatchMatcher decorator around
// *sim.AlgorithmOneMatcher, a faults.Spec.NewSchedule decorator around the
// schedule, a sim.BatchObserver and trace.Sink timing wrapper, and
// core.WrapFunc agent decorators on the scalar replays. The traced twin must
// return the untraced op's results, and bench.trace_overhead is the untraced
// over the traced ops/s. Spans stay in memory until the run ends and are then
// written to .bench_build/spans/. Every workload prints every per-layer
// metric; a layer or cell a workload never runs reads 0. Each metric, the
// end-to-end metric it should move, and where:
//
//	sim.batch.round_us_p50|p90.<cell>    op_ms_p50, ops_per_s    sweep-small and colony-large cells; no change on paper-suite
//	sim.batch.rounds_per_colony.<cell>   none: a count that must repeat exactly for a seed
//	sim.batch.first_round_ms             alloc_bytes_per_op, peak_rss_mb on colony-large (lane build, reset, round 1)
//	core.compile_us, sim.batch.newbatch_us   setup_s, everywhere
//	sim.matcher.match_us_p50, .share,    op_ms_p50 on colony-large (spine work shards cannot split),
//	  .recruiters_per_round,               ops_per_s on sweep-small; success_ratio has Lemma 2.1's 1/16 floor
//	  .success_ratio
//	faults.schedule_step_us, .share,     op_ms_p90 on sweep-small (simple-targeted); no change elsewhere
//	  .ops_per_round
//	trace.observe_round_ns,              op_ms_p50 of observed sweeps on sweep-small; no change on colony-large
//	  .sink_record_ns, .obs_overhead
//	sim.engine.round_us_p50.<cell>,      ops_per_s, op_ms_p90 on paper-suite; no change on the others
//	  .speedup.<cell>, algo.agent_share
//	experiment.table_ms.<id>             ops_per_s, op_ms_p90 on paper-suite
//
// sim.engine.speedup is the batch engine's ant-steps/s at its default worker
// budget over one scalar core.Run's, both measured in this process, so it
// compares across hosts with the same core count. algo.agent_share times one
// ant in 16 and scales up; the decorators subtract the clock's own cost.
//
// The rng and stats layers are reachable only from inside sim.batch and
// experiment, so their cost lands in those layers' time; no hook reaches
// them from outside.
package main
