package serve

import (
	"fmt"
	"sync"

	"gpp/internal/gen"
)

// circuitMemo maps each Table I benchmark name (gen.BenchmarkNames) to a
// shared circuit ref. Generation (logic synthesis plus SFQ mapping in
// gen.Benchmark) is a pure function of the name, and a ref is never
// mutated, so every job that names a suite circuit can share one ref: a
// cache hit then costs no generation and no canonical encoding, and
// retained jobs hold no private copies. A slot fills on the first lookup
// of its name, never at boot; concurrent first lookups run the generator
// once and the others wait for its ref. The slots are fixed when the memo
// is made, so it holds at most the 13 suite circuits; any other name (a
// par<N> scaling circuit, or an unknown one) is generated per request.
type circuitMemo map[string]*memoSlot

type memoSlot struct {
	once sync.Once
	ref  *circuitRef
	err  error
}

func newCircuitMemo() circuitMemo {
	m := make(circuitMemo, len(gen.BenchmarkNames))
	for _, name := range gen.BenchmarkNames {
		m[name] = new(memoSlot)
	}
	return m
}

// maxParGates is the largest par<N> scaling circuit the daemon builds:
// the million-gate instance the repository documents and tests
// (multilevel's TestMillionGateVCycle). A larger N would allocate without
// bound, or overflow inside the generator.
const maxParGates = 1_000_000

// get returns the ref for a benchmark name: the shared one for a suite
// name, a fresh one for any other. An unknown name returns gen.Benchmark's
// error, and a par<N> beyond maxParGates an error naming the limit. Each
// lookup that runs the generator counts a memo miss in m, every other
// suite lookup a hit.
func (cm circuitMemo) get(name string, m *serverMetrics) (*circuitRef, error) {
	slot, ok := cm[name]
	if !ok {
		if spec, par := gen.ParSpec(name); par && spec.Gates > maxParGates {
			return nil, fmt.Errorf("circuit %q has %d gates; par<N> circuits are limited to %d", name, spec.Gates, maxParGates)
		}
		m.memoMisses.Inc()
		return generateRef(name)
	}
	generated := false
	slot.once.Do(func() {
		generated = true
		slot.ref, slot.err = generateRef(name)
	})
	if generated {
		m.memoMisses.Inc()
	} else {
		m.memoHits.Inc()
	}
	return slot.ref, slot.err
}

func generateRef(name string) (*circuitRef, error) {
	c, err := gen.Benchmark(name, nil)
	if err != nil {
		return nil, err
	}
	return newCircuitRef(c), nil
}
