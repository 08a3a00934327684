package partition

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/obs"
)

func traceProblem(t testing.TB, circuit string, k int) *Problem {
	t.Helper()
	c, err := gen.Benchmark(circuit, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromCircuit(c, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveTraceEvents checks the shape of a single-solve trace: the
// bracketing events, one iter event per performed gradient update, and
// payloads that agree with the returned Result.
func TestSolveTraceEvents(t *testing.T) {
	p := traceProblem(t, "KSA4", 5)
	buf := &obs.Buffer{}
	res, err := p.Solve(Options{Seed: 1, MaxIters: 40, Refine: true, Workers: 1, Tracer: buf})
	if err != nil {
		t.Fatal(err)
	}
	evs := buf.Events
	if len(evs) < 4 {
		t.Fatalf("only %d events traced", len(evs))
	}
	if evs[0].Kind != obs.KindSolveStart || evs[1].Kind != obs.KindPool {
		t.Fatalf("trace must open with solve_start, pool; got %s, %s", evs[0].Kind, evs[1].Kind)
	}
	if evs[0].Seed != 1 || evs[0].Gates != p.G || evs[0].K != p.K || evs[0].Edges != len(p.Edges) {
		t.Errorf("solve_start payload wrong: %+v", evs[0])
	}
	var iters, refines int
	var snap, done *obs.Event
	for i := range evs {
		switch evs[i].Kind {
		case obs.KindIter:
			if evs[i].Iter != iters {
				t.Fatalf("iter events out of order: got %d, want %d", evs[i].Iter, iters)
			}
			iters++
		case obs.KindRefine:
			refines++
		case obs.KindSnap:
			snap = &evs[i]
		case obs.KindSolveDone:
			done = &evs[i]
		}
	}
	if iters != res.Iters {
		t.Errorf("traced %d iter events, result says %d iterations", iters, res.Iters)
	}
	if snap == nil {
		t.Error("no snap event")
	}
	if refines == 0 {
		t.Error("no refine events despite Refine: true")
	}
	if done == nil {
		t.Fatal("no solve_done event")
	} else if done.Iters != res.Iters || done.Converged != res.Converged ||
		done.FRelaxed != res.Relaxed.Total || done.FDiscrete != res.Discrete.Total ||
		done.RefineMoves != res.RefineMoves {
		t.Errorf("solve_done disagrees with Result:\nevent  %+v\nresult iters=%d conv=%v relaxed=%v discrete=%v moves=%d",
			done, res.Iters, res.Converged, res.Relaxed.Total, res.Discrete.Total, res.RefineMoves)
	}
	if last := evs[len(evs)-1]; last.Kind != obs.KindSolveDone {
		t.Errorf("trace must close with solve_done, got %s", last.Kind)
	}
}

func manyWorkers() int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4
	}
	return w
}

// TestSolveTraceWorkersDeterminism: the rendered JSONL trace of a Table-I
// circuit is byte-identical for Workers=1 and Workers=N — the property that
// makes traces diffable across machines and parallelism settings.
func TestSolveTraceWorkersDeterminism(t *testing.T) {
	render := func(workers int) string {
		p := traceProblem(t, "KSA4", 5)
		var out bytes.Buffer
		sink := obs.NewJSONL(&out)
		if _, err := p.Solve(Options{Seed: 7, MaxIters: 60, Refine: true, Workers: workers, Tracer: sink}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial, parallel := render(1), render(manyWorkers())
	if serial != parallel {
		t.Errorf("trace differs between Workers=1 and Workers=%d", manyWorkers())
	}
	if !strings.Contains(serial, `"ev":"iter"`) {
		t.Fatalf("trace unexpectedly empty:\n%s", serial)
	}
}

// TestPortfolioTraceWorkersDeterminism: concurrent restarts buffer their
// events and replay in seed order, so even a raced portfolio renders a
// byte-identical trace at every portfolio worker count.
func TestPortfolioTraceWorkersDeterminism(t *testing.T) {
	render := func(workers int) string {
		p := traceProblem(t, "KSA4", 5)
		var out bytes.Buffer
		sink := obs.NewJSONL(&out)
		pf, err := p.SolvePortfolio(context.Background(),
			Options{Seed: 1, MaxIters: 30, Workers: 1, Tracer: sink},
			PortfolioOptions{Restarts: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		// The winner event must match the deterministic selection.
		evs, err := obs.ReadTrace(strings.NewReader(out.String()))
		if err != nil {
			t.Fatal(err)
		}
		last := evs[len(evs)-1]
		if last.Kind != obs.KindWinner || last.Seed != pf.BestSeed {
			t.Fatalf("winner event %+v disagrees with BestSeed %d", last, pf.BestSeed)
		}
		return out.String()
	}
	serial, parallel := render(1), render(manyWorkers())
	if serial != parallel {
		t.Errorf("portfolio trace differs between Workers=1 and Workers=%d", manyWorkers())
	}
	for _, want := range []string{`"ev":"restart_start","restart":0,"seed":1`, `"restart":2,"seed":3`, `"ev":"winner"`} {
		if !strings.Contains(serial, want) {
			t.Errorf("portfolio trace missing %s", want)
		}
	}
}

// TestPortfolioTraceCancellation: a cancelled portfolio still renders a
// complete story — skipped restarts appear as restart_skipped events.
func TestPortfolioTraceCancellation(t *testing.T) {
	p := traceProblem(t, "KSA4", 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any restart starts
	buf := &obs.Buffer{}
	_, err := p.SolvePortfolio(ctx, Options{Seed: 1, MaxIters: 10, Tracer: buf},
		PortfolioOptions{Restarts: 3, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	skipped := 0
	for _, e := range buf.Events {
		if e.Kind == obs.KindRestartSkipped {
			skipped++
		}
	}
	if skipped != 3 {
		t.Errorf("traced %d restart_skipped events, want 3 (events: %v)", skipped, buf.Events)
	}
}

// errTracer reports a latched sink failure, like a JSONL sink whose disk
// filled up.
type errTracer struct{}

func (errTracer) Emit(obs.Event) {}
func (errTracer) Err() error     { return errors.New("disk full") }

// TestSolveTraceSinkErrorSurfaced: a sink write failure comes back through
// the solver's normal error path instead of being silently dropped.
func TestSolveTraceSinkErrorSurfaced(t *testing.T) {
	p := traceProblem(t, "KSA4", 5)
	_, err := p.Solve(Options{Seed: 1, MaxIters: 5, Workers: 1, Tracer: errTracer{}})
	if err == nil || !strings.Contains(err.Error(), "trace sink") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Solve err = %v, want trace-sink error", err)
	}
	_, err = p.SolvePortfolio(context.Background(),
		Options{Seed: 1, MaxIters: 5, Workers: 1, Tracer: errTracer{}},
		PortfolioOptions{Restarts: 2, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "trace sink") {
		t.Fatalf("SolvePortfolio err = %v, want trace-sink error", err)
	}
}

// TestSolveIterationPathAllocFree is the tier-1 guard for design constraint
// №1 of internal/obs: with tracing off, the descent loop performs zero
// allocations per iteration — at every worker count, now that dispatches go
// through the persistent group (one channel send per worker, no goroutine
// spawns). Two solves differing only in iteration count must allocate
// exactly the same — every allocation is per-solve setup. The same holds
// for heavy-ball momentum and under a no-op Tracer (the serve daemon's
// configuration): neither fast-path variant may allocate per iteration.
func TestSolveIterationPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := traceProblem(t, "KSA4", 5)
	variants := []struct {
		name     string
		momentum float64
		tracer   obs.Tracer
	}{
		{"plain", 0, nil},
		{"momentum", 0.9, nil},
		{"nop-tracer", 0, obs.Nop()},
		{"momentum+nop-tracer", 0.9, obs.Nop()},
	}
	counts := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					solve := func(maxIters int) func() {
						return func() {
							// A margin no real cost ratio reaches keeps the
							// loop running for exactly maxIters iterations.
							if _, err := p.Solve(Options{Seed: 1, MaxIters: maxIters, Margin: 1e-300,
								Workers: workers, Momentum: v.momentum, Tracer: v.tracer}); err != nil {
								t.Fatal(err)
							}
						}
					}
					short := testing.AllocsPerRun(5, solve(10))
					long := testing.AllocsPerRun(5, solve(110))
					if long != short {
						t.Errorf("iteration path allocates: %.1f allocs at 10 iters vs %.1f at 110 (+%.2f per iteration)",
							short, long, (long-short)/100)
					}
				})
			}
		})
	}
}

// TestSolveSetupAllocBudget pins the per-solve setup allocation count at
// Workers = 1 (PR 7 measured 31; the fused-kernel rewrite brought it to
// 12: result + W + labels + scratch struct/slab/bool-slab/clamp/dispatch
// closure + a handful in metrics/assign). The budget is a ceiling, not an
// exact match, so incidental library changes don't flake it — but a
// regression back toward the old per-pass-closure count fails loudly.
func TestSolveSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := traceProblem(t, "KSA4", 5)
	budgets := []struct {
		name string
		opts Options
		max  float64
	}{
		{"workers=1", Options{Seed: 1, MaxIters: 50, Margin: 1e-300, Workers: 1}, 14},
		{"workers=1/float32", Options{Seed: 1, MaxIters: 50, Margin: 1e-300, Workers: 1, Precision: Precision32}, 16},
	}
	for _, b := range budgets {
		b := b
		t.Run(b.name, func(t *testing.T) {
			got := testing.AllocsPerRun(10, func() {
				if _, err := p.Solve(b.opts); err != nil {
					t.Fatal(err)
				}
			})
			if got > b.max {
				t.Errorf("solve performed %.1f allocations, budget is %.0f", got, b.max)
			}
		})
	}
}
