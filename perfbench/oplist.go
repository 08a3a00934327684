package main

import (
	"fmt"

	"gpp/internal/gen"
)

// planes is the plane count of every workload: the paper's Table I
// setting.
const planes = 5

// mix is the splitmix64 finalizer; it turns (workload seed, position)
// into independent-looking solver seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// solverSeed derives the solver seed at one position of a workload's op
// list. The result is positive, so it never hits the solver's "0 means
// default" rule.
func solverSeed(workloadSeed int64, stream string, pos ...int) int64 {
	h := mix(uint64(workloadSeed))
	for _, c := range []byte(stream) {
		h = mix(h ^ uint64(c))
	}
	for _, p := range pos {
		h = mix(h ^ uint64(p))
	}
	return int64(h>>1) | 1
}

// flatOp is one table1-flat op: one Table I circuit at one solver seed.
type flatOp struct {
	Circuit string
	Seed    int64
}

// flatOps lists one table1-flat pass: every Table I circuit, in table
// order, once per seed set.
func flatOps(workloadSeed int64, seedSets int) []flatOp {
	ops := make([]flatOp, 0, seedSets*len(gen.BenchmarkNames))
	for set := 0; set < seedSets; set++ {
		for ci, name := range gen.BenchmarkNames {
			ops = append(ops, flatOp{Circuit: name, Seed: solverSeed(workloadSeed, "flat", set, ci)})
		}
	}
	return ops
}

// vcycleOps lists the solver seeds of one vcycle-par200k pass.
func vcycleOps(workloadSeed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = solverSeed(workloadSeed, "vcycle", i)
	}
	return seeds
}

// objectives are the serve-durable cold list's objectives, cycled per
// circuit: the default term set, then each regime term.
var objectives = []string{"", "xesfq", "current_limit", "timing_critical"}

// serveJob is one distinct serve-durable submission.
type serveJob struct {
	Circuit string
	Term    string // "" is the default objective
	Seed    int64
}

// serveJobs lists the serve-durable cold phase: per round, every Table I
// circuit under every objective, each with its own solver seed, so no two
// jobs share a cache key.
func serveJobs(workloadSeed int64, rounds int) []serveJob {
	jobs := make([]serveJob, 0, rounds*len(gen.BenchmarkNames)*len(objectives))
	for r := 0; r < rounds; r++ {
		for ci, name := range gen.BenchmarkNames {
			for ti, term := range objectives {
				jobs = append(jobs, serveJob{Circuit: name, Term: term, Seed: solverSeed(workloadSeed, "serve", r, ci, ti)})
			}
		}
	}
	return jobs
}

// body renders the job's POST /v1/jobs document.
func (j serveJob) body() []byte {
	terms := ""
	if j.Term != "" {
		terms = fmt.Sprintf(`,"terms":[{"name":%q}]`, j.Term)
	}
	return []byte(fmt.Sprintf(`{"circuit":%q,"k":%d,"options":{"seed":%d%s}}`, j.Circuit, planes, j.Seed, terms))
}
