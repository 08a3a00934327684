package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpp/internal/gen"
	"gpp/internal/netlist"
	"gpp/internal/obs"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/serve"
	"gpp/internal/terms"
)

const (
	// serveHotRounds is how many times a hot phase resubmits the jobs of
	// the cold phase before it. More rounds would steady the hit figures
	// further, but every hit stays in the daemon's job registry (up to
	// 4096 jobs with their circuits), and six already take the process to
	// ~510 MB.
	serveHotRounds = 6
	// serveBootsPerRound is how many throwaway daemons the run boots after
	// each hot round: one boot takes about a millisecond, so setup_s is the
	// median of some 150 boots taken at four dozen points of the run.
	serveBootsPerRound = 3
	// requestTimeout bounds every HTTP exchange, so a stuck daemon ends
	// the run instead of hanging it.
	requestTimeout = 60 * time.Second
)

// daemon is one serve.New handler listening on loopback.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon boots a durable daemon on dir with the default Config and
// returns once it answers /healthz.
func startDaemon(ctx context.Context, hc *http.Client, dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// The listen error is the one to report; an idle daemon's drain
		// cannot fail in a way that matters more.
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	code, _, err := d.do(ctx, hc, http.MethodGet, "/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/healthz answered %d", code)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and closes its listener, and returns once the
// serving goroutine has ended. Drain errors are dropped: every job the
// benchmark submitted has already been awaited and checked.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	_ = d.hs.Shutdown(ctx)
	<-d.done
}

// do runs one request and returns the status and the whole body.
func (d *daemon) do(ctx context.Context, hc *http.Client, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// statusDoc is the part of the daemon's job document the benchmark reads.
type statusDoc struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cache  string          `json:"cache"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// resultDoc is the part of a served result the benchmark checks.
type resultDoc struct {
	Iters     int   `json:"iters"`
	Converged bool  `json:"converged"`
	Labels    []int `json:"labels"`
	Metrics   struct {
		Edges       int       `json:"edges"`
		DistHist    []int     `json:"dist_hist"`
		PlaneBias   []float64 `json:"plane_bias_ma"`
		PlaneArea   []float64 `json:"plane_area_mm2"`
		BMax        float64   `json:"b_max_ma"`
		ICompPct    float64   `json:"i_comp_pct"`
		AFreePct    float64   `json:"a_free_pct"`
		EmptyPlanes int       `json:"empty_planes"`
	} `json:"metrics"`
}

func (r *resultDoc) reported() reported {
	m := r.Metrics
	return reported{PlaneBias: m.PlaneBias, PlaneArea: m.PlaneArea, DistHist: m.DistHist,
		BMax: m.BMax, ICompPct: m.ICompPct, AFSPct: m.AFreePct, Empty: m.EmptyPlanes}
}

// submit posts a job, retrying after a 429 (each refusal is counted). It
// returns the accepted status (202 queued or 200 cache hit) and document.
func (d *daemon) submit(ctx context.Context, hc *http.Client, body []byte, rejected *atomic.Int64) (int, statusDoc, error) {
	for {
		code, raw, err := d.do(ctx, hc, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return 0, statusDoc{}, err
		}
		if code == http.StatusTooManyRequests {
			rejected.Add(1)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var doc statusDoc
		if code != http.StatusAccepted && code != http.StatusOK {
			return code, doc, fmt.Errorf("submit answered %d: %s", code, bytes.TrimSpace(raw))
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return code, doc, fmt.Errorf("submit: %w", err)
		}
		return code, doc, nil
	}
}

// await follows the job's /events stream to its terminal status frame.
func (d *daemon) await(ctx context.Context, hc *http.Client, id string) (statusDoc, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return statusDoc{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return statusDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusDoc{}, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: status" {
			terminal = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && terminal {
			var doc statusDoc
			if err := json.Unmarshal([]byte(data), &doc); err != nil {
				return doc, fmt.Errorf("status frame: %w", err)
			}
			return doc, nil
		}
	}
	if err := sc.Err(); err != nil {
		return statusDoc{}, err
	}
	return statusDoc{}, errors.New("event stream ended without a status frame")
}

// profile fetches the spans the daemon recorded for a job.
func (d *daemon) profile(ctx context.Context, hc *http.Client, id string) ([]obs.Event, error) {
	code, raw, err := d.do(ctx, hc, http.MethodGet, "/v1/jobs/"+id+"/profile", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("profile answered %d", code)
	}
	var doc struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return doc.Events, nil
}

// coldOut is one cold job's outcome.
type coldOut struct {
	start   time.Time
	latency time.Duration // submit → terminal status frame
	submit  time.Duration // POST → 202
	result  json.RawMessage
	doc     resultDoc
	traced  bool
	spans   []obs.Event
	err     error
}

// runServe drives serve-durable: an in-process daemon on loopback HTTP
// with its durable store on, fed by two closed-loop clients. Cold phases
// solve a list of distinct Table I jobs; hot phases resubmit them, and
// every resubmission is a memory cache hit.
func runServe(b *bench) error {
	// One pair of rounds per 16 s of measurement; an even round count
	// lets traced runs trace every (circuit, objective) pair in exactly
	// half its rounds.
	rounds := 2 * max(1, int(b.seconds/time.Second)/16)
	jobs := serveJobs(b.seed, rounds)
	b.note("cold_jobs", len(jobs))
	b.note("hot_rounds", serveHotRounds)
	b.note("daemon_workers", runtime.NumCPU())

	circuits := make(map[string]*netlist.Circuit, len(gen.BenchmarkNames))
	for _, name := range gen.BenchmarkNames {
		c, err := gen.Benchmark(name, nil)
		if err != nil {
			return err
		}
		circuits[name] = c
	}

	if err := os.MkdirAll(filepath.Join(b.out, "tmp"), 0o755); err != nil {
		return err
	}
	dataRoot, err := os.MkdirTemp(filepath.Join(b.out, "tmp"), "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	// Set-up: boot a daemon on an empty data directory. The first boot
	// serves the run; later ones, between hot rounds, are stopped at once.
	boots := 0
	boot := func() (d *daemon, dir string, err error) {
		dir = filepath.Join(dataRoot, strconv.Itoa(boots))
		boots++
		err = b.timeSetup(func() (err error) {
			d, err = startDaemon(ctx, hc, dir)
			return err
		})
		return d, dir, err
	}
	throwaway := func() error {
		for i := 0; i < serveBootsPerRound; i++ {
			d, dir, err := boot()
			if err != nil {
				return err
			}
			d.stop()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return nil
	}
	d, _, err := boot()
	if err != nil {
		return err
	}
	defer d.stop()
	b.calibrate()

	// The run alternates cold and hot phases, two per round: each cold
	// phase solves half a round's jobs and the hot phase after it
	// resubmits them. Both kinds of phase thus sample the host, and the
	// hot ones the daemon's collection cycle, at eight points of the run
	// rather than in one stretch each.
	var rejected atomic.Int64
	cold := make([]coldOut, len(jobs))
	hitMS := make([]float64, 0, len(jobs)*serveHotRounds)
	var hotErrs []error
	var hotGCs uint32
	var hotPauseNS, hotAllocBytes uint64
	var mu sync.Mutex
	var coldWall, coldCPU time.Duration
	var ms0, ms1 runtime.MemStats
	var allocBytes uint64
	phases := 2 * rounds
	perPhase := len(jobs) / phases
	for ph := 0; ph < phases; ph++ {
		lo := ph * perPhase
		if b.traced {
			runtime.ReadMemStats(&ms0)
		}
		roundStart, cpu0 := time.Now(), cpuTime()
		b.clients(perPhase, func(k int) {
			i := lo + k
			o := &cold[i]
			o.traced = b.traced && servedTraced(i)
			o.start = time.Now()
			code, doc, err := d.submit(ctx, hc, jobs[i].body(), &rejected)
			o.submit = time.Since(o.start)
			switch {
			case err != nil:
				o.err = err
				return
			case code != http.StatusAccepted:
				o.err = fmt.Errorf("cold submit answered %d (cache %s): the list repeats a cache key", code, doc.Cache)
				return
			}
			final, err := d.await(ctx, hc, doc.ID)
			o.latency = time.Since(o.start)
			if err != nil {
				o.err = err
				return
			}
			if final.Status != "done" {
				o.err = fmt.Errorf("job %s ended %s: %s", doc.ID, final.Status, final.Error)
				return
			}
			o.result = final.Result
			if o.traced {
				o.spans, o.err = d.profile(ctx, hc, doc.ID)
			}
		})
		coldWall += time.Since(roundStart)
		coldCPU += cpuTime() - cpu0
		if b.traced {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		b.calibrate()

		// Start the hot phase on a collected heap, so that a collection
		// begun in the cold phase never runs under the hits; left to
		// chance, that overlap spread hit_* by up to 25% across runs. The
		// collections the hits' own allocations start still land in the
		// phase, and are counted with their pause time, as are the bytes a
		// hit allocates.
		runtime.GC()
		for h := 0; h < serveHotRounds; h++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			lat := make([]float64, perPhase)
			b.clients(perPhase, func(k int) {
				i := lo + k
				t0 := time.Now()
				code, doc, err := d.submit(ctx, hc, jobs[i].body(), &rejected)
				lat[k] = ms(time.Since(t0))
				switch {
				case err == nil && (code != http.StatusOK || doc.Cache != "hit"):
					err = fmt.Errorf("resubmission answered %d, cache %q", code, doc.Cache)
				case err == nil && !bytes.Equal(doc.Result, cold[i].result):
					err = errors.New("cache hit body differs from the cold body")
				}
				if err != nil {
					mu.Lock()
					hotErrs = append(hotErrs, fmt.Errorf("%s %q seed %d: %w", jobs[i].Circuit, jobs[i].Term, jobs[i].Seed, err))
					mu.Unlock()
				}
			})
			runtime.ReadMemStats(&m1)
			hotGCs += m1.NumGC - m0.NumGC
			hotPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
			hotAllocBytes += m1.TotalAlloc - m0.TotalAlloc
			hitMS = append(hitMS, lat...)
			if err := throwaway(); err != nil {
				return err
			}
		}
		b.calibrate()
	}

	// Checks, after the clock stopped.
	var q qualitySum
	var coldMS, submitMS []float64
	iters, converged := 0, 0
	run := newDigest()
	for i, j := range jobs {
		o := &cold[i]
		b.attempted++
		run.str(j.Circuit).str(j.Term).int(j.Seed).bytes(o.result)
		if o.err == nil {
			o.err = checkServed(o, circuits[j.Circuit], j.Term == "")
		}
		if o.err != nil {
			b.failOp("%s %q seed %d: %v", j.Circuit, j.Term, j.Seed, o.err)
			continue
		}
		coldMS = append(coldMS, ms(o.latency))
		submitMS = append(submitMS, ms(o.submit))
		m := o.doc.Metrics
		q.add(m.ICompPct, m.AFreePct, m.DistHist[0]+m.DistHist[1], m.Edges)
		iters += o.doc.Iters
		if o.doc.Converged {
			converged++
		}
	}
	b.attempted += len(jobs) * serveHotRounds
	for _, err := range hotErrs {
		b.failOp("%v", err)
	}
	b.note("digest", run.hexSum())

	b.setMetric("tts_s", coldWall.Seconds())
	b.setLatencies("cold", coldMS)
	b.setLatencies("hit", hitMS)
	b.setMetric("jobs_per_s", float64(len(jobs))/coldWall.Seconds())
	q.set(b)
	b.setMetric("partition.iters", float64(iters))
	b.setMetric("partition.converged_pct", 100*float64(converged)/float64(len(jobs)))
	hits := float64(len(hitMS))
	b.setMetric("serve.cache_hit_pct", 100*hits/(hits+float64(len(jobs))))
	b.setMetric("serve.rejected", float64(rejected.Load()))
	b.setMetric("serve.hit_alloc_kb", float64(hotAllocBytes)/1024/hits)
	b.note("hot_gc_cycles", hotGCs)
	b.note("hot_gc_pause_ms", float64(hotPauseNS)/1e6)
	if b.traced {
		b.setMetric("serve.submit_ms", median(submitMS))
		b.setMetric("pool.cpu_per_wall", coldCPU.Seconds()/coldWall.Seconds())
		b.setMetric("partition.alloc_mb", float64(allocBytes)/(1<<20)/float64(len(jobs)))
		return b.serveLayers(jobs, cold, circuits)
	}
	return nil
}

// servedTraced picks the cold jobs a traced run traces: half of every
// (circuit, objective) pair's rounds, so traced and untraced jobs carry
// the same mix of work.
func servedTraced(i int) bool {
	perRound := len(gen.BenchmarkNames) * len(objectives)
	return (i/perRound+i%perRound)%2 == 0
}

// clients runs n closed-loop calls on the workload's client count: each
// client takes the next index when its previous call has returned.
func (b *bench) clients(n int, call func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(b.w.clients)
	for c := 0; c < b.w.clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
}

// checkServed decodes a cold result and checks it: the labels always, and
// for the default objective the full evaluation against the served
// metrics (regime terms reshape biases and edges, so their metrics are
// not the circuit's own).
func checkServed(o *coldOut, c *netlist.Circuit, defaultObjective bool) error {
	if err := json.Unmarshal(o.result, &o.doc); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if len(o.doc.Metrics.DistHist) != planes {
		return fmt.Errorf("result has %d distance classes, want %d", len(o.doc.Metrics.DistHist), planes)
	}
	if !defaultObjective {
		return checkLabels(len(c.Gates), planes, o.doc.Labels)
	}
	q, err := evaluate(c, planes, o.doc.Labels)
	if err != nil {
		return err
	}
	return q.compare(o.doc.reported())
}

// serveLayers derives serve-durable's per-layer metrics on a traced run:
// the daemon's own spans from each traced job's profile, and the gen,
// terms and recycle entry points timed by calling them from outside on
// each cold job's circuit, options and served labels.
func (b *bench) serveLayers(jobs []serveJob, cold []coldOut, circuits map[string]*netlist.Circuit) error {
	traced := make([][]float64, len(jobs))
	untraced := make([][]float64, len(jobs))
	perRound := len(gen.BenchmarkNames) * len(objectives)
	var genMS, buildMS, evalMS, planMS []float64
	var descentUS float64
	descentIters := 0
	for i, o := range cold {
		if o.err != nil {
			continue
		}
		pair := i % perRound
		if o.traced {
			traced[pair] = append(traced[pair], ms(o.latency))
			root := obs.Event{Span: "request", AtUS: o.start.Sub(b.t0).Microseconds(), DurUS: o.latency.Microseconds()}
			b.sink.adopt(root, o.spans, int64(i))
			for _, e := range o.spans {
				if e.Kind == obs.KindSpan && e.Span == "descent" {
					descentUS += float64(e.DurUS)
					descentIters += o.doc.Iters
				}
			}
		} else {
			untraced[pair] = append(untraced[pair], ms(o.latency))
		}

		j := jobs[i]
		root := b.root("op")
		t0 := time.Now()
		sp := root.Child("gen.Benchmark")
		c, err := gen.Benchmark(j.Circuit, nil)
		sp.End()
		t1 := time.Now()
		if err != nil {
			return err
		}
		opts := partition.Options{Seed: j.Seed}
		if j.Term != "" {
			opts.Terms = []partition.TermSpec{{Name: j.Term}}
		}
		sp = root.Child("terms.BuildProblem")
		p, _, err := terms.BuildProblem(c, planes, opts, nil)
		sp.End()
		t2 := time.Now()
		if err != nil {
			return err
		}
		sp = root.Child("recycle.Evaluate")
		_, err = recycle.Evaluate(p, o.doc.Labels)
		sp.End()
		t3 := time.Now()
		if err != nil {
			return err
		}
		sp = root.Child("recycle.BuildPlan")
		_, err = recycle.BuildPlan(c, p, o.doc.Labels, recycle.PlanOptions{})
		sp.End()
		t4 := time.Now()
		root.End()
		if err != nil {
			return err
		}
		genMS = append(genMS, ms(t1.Sub(t0)))
		buildMS = append(buildMS, ms(t2.Sub(t1)))
		evalMS = append(evalMS, ms(t3.Sub(t2)))
		planMS = append(planMS, ms(t4.Sub(t3)))
	}
	events := b.sink.snapshot()
	b.setMetric("gen.circuit_ms", median(genMS))
	b.setMetric("terms.build_ms", median(buildMS))
	b.setMetric("recycle.evaluate_ms", median(evalMS))
	b.setMetric("recycle.plan_ms", median(planMS))
	b.setMetric("partition.solve_ms", median(spanDurations(events, "descent")))
	if descentIters > 0 {
		b.setMetric("partition.ns_per_iter", descentUS*1000/float64(descentIters))
	}
	b.setMetric("serve.queue_wait_ms", median(spanDurations(events, "queue_wait")))
	b.setMetric("serve.solve_ms", median(spanDurations(events, "solve")))
	b.setMetric("store.wal_accept_ms", median(spanDurations(events, "wal_accept")))
	b.setMetric("store.persist_ms", median(spanDurations(events, "persist")))
	b.setMetric("obs.trace_overhead_pct", overheadPct(traced, untraced))
	return nil
}
