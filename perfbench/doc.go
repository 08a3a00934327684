// Command perfbench is the repository benchmark. It runs one named
// workload from a seed in its own process, drives the program only through
// its public entry points (gen.Benchmark, terms.BuildProblem,
// (*partition.Problem).SolveCtx, multilevel.PartitionCtx, recycle.Evaluate,
// recycle.BuildPlan, and the serve.New handler over loopback HTTP), checks
// every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload table1-flat --seed 1 --seconds 36 --trace 0
//
// run.sh builds the binary from the checkout (every build product, cache
// and scratch file lands under .bench_build/) and runs it. The line before
// the result is a detail record: the environment (nproc, GOMAXPROCS,
// workers, clients, Go version, seed), the run digest, sample counts and
// tails, the host.calib_ms reading, and on traced runs the self-time split.
//
// # Workloads
//
// All three are closed loops: each caller starts its next op when the
// previous one has returned. The seed fixes the op list, and two runs at
// one seed do bit-identical work; the run digest hashes the op list with
// each op's labels and iteration count to show it.
//
//   - table1-flat: the paper's experiment. One caller solves the 13 Table I
//     circuits at K = 5 with default options and Workers = 1, once per
//     seed set (one set per 6 s of --seconds), and repeats that pass. Each
//     solve is BuildProblem → SolveCtx → Evaluate → BuildPlan. Two
//     set-ups are timed after every suite.
//   - vcycle-par200k: one caller runs V-cycles on par200000 at Workers = 2
//     through multilevel.PartitionCtx, then Evaluate and BuildPlan, for
//     each of 16 solver seeds; each seed runs twice back to back, its
//     first execution and its repeat. The problem is set up again after
//     every fourth V-cycle.
//   - serve-durable: a serve.New daemon with the default Config and its
//     data directory under .bench_build/tmp, driven by two clients. The
//     cold list holds, per round (two per 16 s of --seconds), every
//     Table I circuit under the default objective, xesfq, current_limit
//     and timing_critical, each a distinct job awaited on its /events
//     stream. The run alternates cold phases, each solving half a round's
//     jobs, with hot phases that resubmit the jobs just solved six times
//     back to back; every resubmission is a memory cache hit. Each hot
//     phase starts on a collected heap. Three throwaway daemons are
//     booted on empty directories and stopped after every resubmission
//     round.
//
// # Checks
//
// Every default-objective result is evaluated again from the circuit and
// labels by the benchmark's own code (per-plane bias and area, B_max,
// I_comp, A_FS, distance histogram) and compared with recycle.Evaluate
// (solver workloads) or the served metrics (serve-durable). A mismatch, a
// label outside [0, K) or an empty plane fails the op; so does a plan
// whose coupler hops disagree with the distances, a repeated op whose
// digest differs from its first execution, a cache hit whose body is not
// byte-identical to the cold body, and, on the traced vcycle-par200k run,
// a Workers = 1 V-cycle that differs from the Workers = 2 one.
//
// # End-to-end metrics (--trace 0)
//
// An op is one suite, the 13 solves of one seed set (table1-flat), one
// V-cycle (vcycle-par200k) or one cold job (serve-durable); a pass is one
// run through the op list. Op times cover the calls into the program only.
// The result line's attempted and failed count solves, V-cycles, and cold
// and hot jobs.
//
//   - setup_s: median over set-ups repeated across the run of the time
//     until the first op can start: suite generation and SFQ mapping
//     (table1-flat, 25 set-ups), par200000 generation plus BuildProblem
//     (vcycle-par200k, 8), daemon boot on an empty data directory
//     until /healthz answers (serve-durable, 145). The solver
//     workloads start each set-up on a collected heap; the detail record
//     gives the count and quartiles.
//   - tts_s: median op time: one suite (table1-flat), one V-cycle
//     (vcycle-par200k); wall time of the cold phases, the whole job list
//     (serve-durable).
//   - cold_p50_ms, cold_p90_ms: latency of ops computed from scratch:
//     every op execution on the solver workloads, which cache nothing;
//     submit to terminal SSE frame for cold jobs on serve-durable.
//   - jobs_per_s: partitions per second: solves per second of solve time
//     (table1-flat), V-cycles per second of op time (vcycle-par200k), cold
//     jobs per second of cold-phase wall time (serve-durable).
//   - hit_p50_ms, hit_p90_ms: latency of ops already answered once in the
//     run: POST to 200 of a cache hit on serve-durable; on the solver
//     workloads, which have no result cache, the repeat recomputes, so
//     these are the repeated executions. Blind spot on serve-durable: each
//     hot phase starts on a collected heap, so hit_* leave out collection
//     work carried over from the cold phase (left to chance, that overlap
//     spread hit_* by up to 25% across runs); the collections the hits'
//     own allocations start, 5 to 11 per run, do land in them. The detail
//     record counts those collections and their pause time
//     (hot_gc_cycles, hot_gc_pause_ms), and the per-layer
//     serve.hit_alloc_kb gives the bytes one hit allocates, client side
//     included, so a change that allocates more on the hit path shows
//     there.
//   - peak_rss_mb: VmHWM of the process.
//   - icomp_pct, afs_pct: mean I_comp and A_FS over the op list;
//     dle1_pct: share of all connections at plane distance ≤ 1. All three
//     are exact for a given seed. On vcycle-par200k the solver seeds fall
//     into two basins of quality (I_comp ~0.44% for about one in four,
//     ~1.9% for the rest), so across workload seeds the mean follows how
//     many of the 16 seeds land in the better basin: 1.33% to 1.86% over
//     workload seeds 1 to 10, an IQR of 24% of the median. At one seed,
//     a change that loses or gains the better basin moves the mean. The
//     detail record lists each V-cycle's I_comp, A_FS and share at
//     distance ≤ 1.
//
// Percentiles are nearest-rank. The detail record gives each latency set's
// sample count and its tail: the highest of p90/p99/p99.9 with at least
// ten samples beyond it. serve-durable's cold and hit sets meet that rule
// at p90 or above. On the solver workloads the sets are small, because an
// op is seconds long: cold_* and hit_* are order statistics of 12 and 6
// suites (table1-flat) and of 32 and 16 V-cycles (vcycle-par200k), so
// a p90 there is the slowest op of its set (hit_p90 on table1-flat) or
// the second to fourth slowest, not a tail.
//
// host.calib_ms is the median time of a fixed floating-point loop the
// benchmark runs between ops. It shows how fast the host ran, to tell
// host drift from a regression; no metric is scaled by it.
//
// # Per-layer metrics (--trace 1)
//
// A traced run keeps its spans in memory and writes them at exit to
// .bench_build/trace-<workload>-seed<n>.jsonl (gpp-inspect spans reads it).
// The benchmark records a span around each call into a module and reads
// the spans the program already emits: partition.Options.Span under flat
// solves and V-cycles, and GET /v1/jobs/{id}/profile for serve jobs. Half
// of the ops of a traced run are traced and half are not, balanced per op;
// obs.trace_overhead_pct compares the two. The detail record's self_ms
// gives each layer's self time (span minus child spans) over the run.
//
// Times are per pass on table1-flat, per V-cycle on vcycle-par200k and a
// median per cold job on serve-durable, where gen, terms and recycle are
// timed by calling them from outside on each job's circuit, options and
// served labels. partition.iters is per pass, per V-cycle and per cold
// list respectively. pool.speedup_w2 is the Workers = 1 V-cycle time over
// the Workers = 2 one; pool.cpu_per_wall is process CPU time over wall
// time while ops run (on vcycle-par200k, the set-ups between V-cycles
// included). A layer that does no work on a workload reports 0.
package main
