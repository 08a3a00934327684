package serve

import (
	"sync"

	"gpp/internal/gen"
	"gpp/internal/obs"
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

// get returns the ref for a benchmark name: the shared one for a suite
// name, a fresh one for any other. An unknown name returns
// gen.Benchmark's error.
func (m circuitMemo) get(name string) (*circuitRef, error) {
	slot, ok := m[name]
	if !ok {
		mMemoMisses.Inc()
		return generateRef(name)
	}
	generated := false
	slot.once.Do(func() {
		generated = true
		slot.ref, slot.err = generateRef(name)
	})
	if generated {
		mMemoMisses.Inc()
	} else {
		mMemoHits.Inc()
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

var (
	mMemoHits = obs.Default().Counter("gpp_serve_circuit_memo_hits_total",
		"named-circuit lookups answered by the circuit memo without generating")
	mMemoMisses = obs.Default().Counter("gpp_serve_circuit_memo_misses_total",
		"named-circuit lookups that ran the circuit generator")
)
