package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/partition"
	"gpp/internal/sweep"
)

// parentKeys are the cache key and circuit_hash the daemon gave
// {"circuit":NAME,"k":5} before named circuits were memoized, when every
// submission regenerated and encoded its circuit afresh. The memo's
// resumed key hash must reproduce them byte for byte, on the lookup that
// fills the memo and on every later one.
var parentKeys = []struct{ name, key, hash string }{
	{"KSA4", "a02821a545c9b21a495176e57b64e8ad2d7323e81f22ba5850739bda2125c6a2", "81ffcb1ac92af670bbefaadb1319f05aa4abc25cc8409661555beaa8d7fd777d"},
	{"KSA8", "a14a9b919e4863f941df47337ce298869080b399be79d3f0ac1b17f41524ded0", "0ac2f876466f556c3b4714307f921d8aeb69658f3f4bbbe99d96301225b6698a"},
	{"KSA16", "0c0dbf6e6834f7840c69dd1f7e6025b2bb3db6c012a37fe6d46f557a04d4b6b8", "1f8514b215671bc11bc2b81d49c9bc32b8c28743ba5ae5ff050da0461189a94d"},
	{"KSA32", "ab98371749d3cb1dacfdc78f7a8b7ffeef00947144c327b75314fab2e29000f2", "167475dcc839ee30430267057b109163601b511c073b58005f35cfa4a64f6bc6"},
	{"MULT4", "4deebc4f0ae90d0db6e2cb8947fc7720073c19322909cf2d790aac308804b14b", "d5f53cb29ef0fb98bce0b8aa362fec7b8c05900d9eeb937ac8f831c33ddf9ef6"},
	{"MULT8", "fec37e74a32f9d6d42cdbfe9ebffb6a5b5faf9a92088498ab2ef051b6cec7fe1", "fab14a9a793694c15737d16e6745765576f3d4684c23b84456b2416d9c4ff75a"},
	{"ID4", "9d4f6e98c923d734a50518b105cc8c9152e700cbfab0891d40ced108439d5674", "0c42fdc962d24a1085b3a401539645eeab950367d3640689a7eefd9d18a8a12d"},
	{"ID8", "fb7dd83c08234a2f9ff9401c7f7c85bef81c9241afd93490bfe6a9f128a766bf", "25118c28673506a4d1e376bafed7ee725bfc35f186a6162736c00c41f7b1435e"},
	{"C432", "6ca10eff33e9cb9e68d4574864ca6585e42830033367f8ab54348394b3cdb6ae", "9238c8f60d58dd10dd7cd23e19d6dee3014ab1ac98cc1adf5716b26007bdff88"},
	{"C499", "1bab37b25e6bcd83ce2bafe88854192bf984cd82823195540896a48ec9ea1e72", "dc07e29764a6cf09508ceaafa4c8d728e5c79cff85d38a82410e9c10041b139f"},
	{"C1355", "84239a8b4bae4fe627977714909fdc2a34a569872a85b73c577ece4e491d6878", "ea4e88320385123df5960ab5afd4518699942c8e155c357d822f12a5dd545465"},
	{"C1908", "cd71d8f58ff02a070eeb32178141aeb342e6061ec393a87cf0e6df3a3ec7eb56", "a4f50ca31b929e77fee10ea1e9049e541bb7b503dbe95755a003d7dce4596ef3"},
	{"C3540", "f1a6e2fae63b5c3e47eba41986cd02fa6eb49e615cc5d6383c031577536fa76a", "e7cc4301b7ec7b17f13162b0df01201883b6cfbf01c5b817d4b91b418af7c912"},
}

// tinyDEF is a three-cell inline upload; its key and hash below were
// computed for {"def":tinyDEF,"k":2,"plan":true} before the memo, when
// the DEF path encoded the circuit canonically twice.
const (
	tinyDEF = `VERSION 5.8 ;
DIVIDERCHAR "/" ;
BUSBITCHARS "[]" ;
DESIGN tiny ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 160000 200000 ) ;

COMPONENTS 3 ;
- a DCSFQ + PLACED ( 0 0 ) N ;
- b JTL + PLACED ( 80000 0 ) N ;
- c SFQDC + PLACED ( 0 80000 ) N ;
END COMPONENTS

NETS 2 ;
- net_a ( a o0 ) ( b i0 ) ;
- net_b ( b o0 ) ( c i0 ) ;
END NETS

END DESIGN
`
	tinyDEFKey  = "d1324891991b22f31b89aaefa47aa51189d5a389c445183efcd5be3abe227042"
	tinyDEFHash = "4c3f147c308e1baf840298934b945eb64d027f05be0816c177e90b8546d08509"
)

// TestMemoKeysMatchParent pins the cache key and circuit_hash of every
// Table I name, on the submission that fills the memo and on a memo hit,
// and of an inline DEF upload, which bypasses the memo.
func TestMemoKeysMatchParent(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	build := func(req JobRequest) *job {
		t.Helper()
		j, _, err := s.buildJob(&req)
		if err != nil {
			t.Fatal(err)
		}
		j.cancel()
		return j
	}
	if len(parentKeys) != len(gen.BenchmarkNames) {
		t.Fatalf("%d pinned names, suite has %d", len(parentKeys), len(gen.BenchmarkNames))
	}
	for _, want := range parentKeys {
		fill := build(JobRequest{Circuit: want.name, K: 5})
		hit := build(JobRequest{Circuit: want.name, K: 5})
		for _, j := range []*job{fill, hit} {
			if j.key != want.key || j.ref.hash != want.hash {
				t.Errorf("%s: key %s hash %s, want %s %s", want.name, j.key, j.ref.hash, want.key, want.hash)
			}
		}
		if hit.ref != fill.ref {
			t.Errorf("%s: second submission built its own circuit instead of sharing the memo's", want.name)
		}
	}
	j := build(JobRequest{DEF: tinyDEF, K: 2, Plan: true})
	if j.key != tinyDEFKey || j.ref.hash != tinyDEFHash {
		t.Errorf("DEF upload: key %s hash %s, want %s %s", j.key, j.ref.hash, tinyDEFKey, tinyDEFHash)
	}
	if j.ref.hash != CircuitHash(j.ref.circuit) {
		t.Error("a ref's hash differs from CircuitHash of its circuit")
	}
}

// TestSharedCircuitConcurrentJobs runs every objective on one named
// circuit at once, with plans, assignments, a from_job chain and a sweep,
// so that under -race any write to the shared circuit shows. Afterwards
// the memo's circuit still equals a fresh generation, every job holds the
// memo's ref, and the memo generated the circuit exactly once.
func TestSharedCircuitConcurrentJobs(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const name = "KSA8"
	objectives := [][]partition.TermSpec{
		nil,
		{{Name: "xesfq"}},
		{{Name: "current_limit"}},
		{{Name: "timing_critical"}},
	}
	const perObjective = 2
	hits0, misses0 := mMemoHits.Value(), mMemoMisses.Value()

	var wg sync.WaitGroup
	for i, terms := range objectives {
		for r := 0; r < perObjective; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := chainJobs(s, base, JobRequest{
					Circuit: name, K: 4, Plan: true,
					Options: &JobOptions{Seed: int64(i + 1), MaxIters: 300, Terms: terms},
				}); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, raw, err := post(base, "/v1/sweeps", SweepRequest{Circuit: name, Spec: sweep.Spec{Ks: []int{3, 5}},
			Options: &JobOptions{MaxIters: 300}})
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("sweep submit answered %d: %s", code, raw)
		}
		var sb sweepStatusBody
		if err == nil {
			err = json.Unmarshal(raw, &sb)
		}
		if err != nil {
			t.Error(err)
			return
		}
		sr, ok := s.sweeps.get(sb.ID)
		if !ok {
			t.Errorf("sweep %s not registered", sb.ID)
			return
		}
		_, ch, detach := sr.broker.subscribe()
		defer detach()
		for range ch { // closed when the last cell is terminal
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	chains := len(objectives) * perObjective
	named := int64(chains + 1) // every chain's first link, and the sweep

	shared := s.memo[name].ref
	if shared == nil {
		t.Fatal("the memo does not hold the circuit")
	}
	fresh, err := gen.Benchmark(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.circuit, fresh) {
		t.Fatal("the shared circuit no longer equals a fresh generation")
	}
	jobs := s.store.list()
	for _, j := range jobs {
		if j.ref.circuit != shared.circuit {
			t.Errorf("job %s holds its own circuit, not the memo's", j.id)
		}
	}
	if want := 3*chains + 2; len(jobs) != want { // 3 jobs per chain, 2 sweep cells
		t.Errorf("%d jobs registered, want %d", len(jobs), want)
	}
	hits, misses := mMemoHits.Value()-hits0, mMemoMisses.Value()-misses0
	if misses != 1 || hits+misses != named {
		t.Errorf("memo hits %d misses %d over %d named submissions, want 1 miss", hits, misses, named)
	}

	code, msg := postError(t, base, "/v1/jobs", `{"circuit":"KSA9","k":4}`)
	if code != http.StatusBadRequest || msg != `gen: unknown benchmark "KSA9"` {
		t.Errorf("unknown name: %d %q, want 400 naming it", code, msg)
	}
	if _, kept := s.memo["KSA9"]; kept || len(s.memo) != len(gen.BenchmarkNames) {
		t.Error("an unknown name was memoized")
	}
}

// chainJobs submits req, waits for it, reads its assignment, then runs two
// more jobs each from_job the previous one. It returns an error instead of
// failing the test, because it runs on goroutines other than the test's,
// where t.Fatal must not be called.
func chainJobs(s *Server, base string, req JobRequest) error {
	for link := 0; link < 3; link++ {
		code, raw, err := post(base, "/v1/jobs", req)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted && code != http.StatusOK {
			return fmt.Errorf("submit answered %d: %s", code, raw)
		}
		var sb statusBody
		if err := json.Unmarshal(raw, &sb); err != nil {
			return err
		}
		waitDone(s, sb.ID)
		resp, err := http.Get(base + "/v1/jobs/" + sb.ID + "/assignment")
		if err != nil {
			return err
		}
		tsv, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || len(tsv) == 0 {
			return fmt.Errorf("job %s assignment answered %d: %s", sb.ID, resp.StatusCode, tsv)
		}
		req = JobRequest{FromJob: sb.ID, K: req.K + 1, Plan: true, Options: req.Options}
	}
	return nil
}

// waitDone blocks until the job's progress stream closes, which happens
// when the job reaches a terminal state. It is waitTerminal without the
// *testing.T, for the chain and sweep goroutines.
func waitDone(s *Server, id string) {
	j, ok := s.store.get(id)
	if !ok {
		return
	}
	_, ch, detach := j.broker.subscribe()
	defer detach()
	for range ch {
	}
}

// post sends v as JSON and returns the status code and body. It is
// postJob without the *testing.T, for the chain and sweep goroutines.
func post(base, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
