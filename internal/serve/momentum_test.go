package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/obs"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/terms"
)

// Keys computed by the daemon before absent momentum meant MomentumAuto,
// when every job without a momentum field ran plain steps. A flat job that
// says "momentum": 0 and a multilevel job without the field still run
// exactly that solve, so they must still address those entries.
const (
	legacyFlatKey  = "bf4540dac2b787d70dea3edb7c34e2bf8c1e85a2c50b348b9eb5ca7a10f7815f" // {"circuit":"KSA8","k":4,"options":{"seed":7,"max_iters":300}}
	legacyMLKey    = "aee54bfd3b72c034854624c9d6ff12e5e9621a882263e7ee56c846a0bdcc711d" // {"circuit":"par2000","k":4,"options":{"max_iters":300},"multilevel":{}}
	legacyPlainKey = "c39d69dac85799217c795331a4f78d607c6b6b9033c6fc6d5b430c94c1f1ec7c" // {"circuit":"KSA8","k":4}
)

// TestMomentumCacheKeys: an absent momentum (MomentumAuto on flat jobs) and
// an explicit 0 address different entries; the explicit 0 keeps the key
// every momentum-0 entry was stored under, as does a multilevel job, which
// keeps plain steps by default.
func TestMomentumCacheKeys(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	key := func(body string) string {
		t.Helper()
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		j, _, err := s.buildJob(&req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		j.cancel()
		return j.key
	}
	absent := key(`{"circuit":"KSA8","k":4,"options":{"seed":7,"max_iters":300}}`)
	zero := key(`{"circuit":"KSA8","k":4,"options":{"seed":7,"max_iters":300,"momentum":0}}`)
	heavy := key(`{"circuit":"KSA8","k":4,"options":{"seed":7,"max_iters":300,"momentum":0.9}}`)
	if absent == zero || absent == heavy || zero == heavy {
		t.Fatalf("absent, 0 and 0.9 momentum must have three keys: %s %s %s", absent, zero, heavy)
	}
	if zero != legacyFlatKey {
		t.Errorf("explicit momentum 0 key %s, want the momentum-0 key %s", zero, legacyFlatKey)
	}
	if got := key(`{"circuit":"KSA8","k":4,"options":{"momentum":0}}`); got != legacyPlainKey {
		t.Errorf("explicit momentum 0 with default options: key %s, want %s", got, legacyPlainKey)
	}
	if got := key(`{"circuit":"par2000","k":4,"options":{"max_iters":300},"multilevel":{}}`); got != legacyMLKey {
		t.Errorf("multilevel key %s, want the unchanged %s", got, legacyMLKey)
	}
	if got := key(`{"circuit":"par2000","k":4,"options":{"max_iters":300,"momentum":0},"multilevel":{}}`); got != legacyMLKey {
		t.Errorf("multilevel with explicit momentum 0: key %s, want %s", got, legacyMLKey)
	}
}

// TestMomentumOutOfRangeRejected: an explicit momentum outside [0, 1) is a
// 400 whose message names the value, on jobs and sweeps alike —
// MomentumAuto's value (-1) included, which only an absent field selects.
func TestMomentumOutOfRangeRejected(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, m := range []string{"-1", "1", "1.5", "-0.25"} {
		code, msg := postError(t, base, "/v1/jobs", `{"circuit":"KSA8","k":4,"options":{"momentum":`+m+`}}`)
		if code != http.StatusBadRequest || !strings.Contains(msg, "momentum "+m+" ") {
			t.Errorf("job momentum %s: %d %s, want 400 naming the value", m, code, msg)
		}
		code, msg = postError(t, base, "/v1/sweeps", `{"circuit":"KSA4","spec":{"ks":[3]},"options":{"momentum":`+m+`}}`)
		if code != http.StatusBadRequest || !strings.Contains(msg, "momentum "+m+" ") {
			t.Errorf("sweep momentum %s: %d %s, want 400 naming the value", m, code, msg)
		}
	}
}

// TestMomentumBodiesMatchDirectSolves: "momentum": 0 serves exactly the
// bytes of a direct momentum-0 terms.BuildProblem + SolveCtx, and an absent
// momentum exactly those of a direct MomentumAuto solve — on the default
// objective (auto runs heavy-ball) and on current_limit (auto keeps plain
// steps, so both spellings serve the same bytes under different keys).
func TestMomentumBodiesMatchDirectSolves(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	c, err := gen.Benchmark("KSA8", nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(opts partition.Options) []byte {
		t.Helper()
		p, opts, err := terms.BuildProblem(c, 4, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.SolveCtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := recycle.Evaluate(p, res.Labels)
		if err != nil {
			t.Fatal(err)
		}
		env := resultEnvelope{
			K: 4, Iters: res.Iters, Converged: res.Converged,
			DiscreteCost: res.Discrete.Total, RefineMoves: res.RefineMoves,
			Labels: res.Labels, Metrics: metricsJSON(m),
			Cost: &costJSON{F1: res.Discrete.F1, F2: res.Discrete.F2, F3: res.Discrete.F3,
				F4: res.Discrete.F4, Extra: res.Discrete.Extra, Total: res.Discrete.Total},
		}
		body, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	served := func(jo JobOptions) []byte {
		t.Helper()
		_, sb, _ := postJob(t, base, JobRequest{Circuit: "KSA8", K: 4, Options: &jo})
		if done := waitTerminal(t, base, sb.ID); done.Status != StatusDone {
			t.Fatalf("job ended %s (%s), want done", done.Status, done.Error)
		}
		return getBody(t, base, "/v1/jobs/"+sb.ID+"/result", http.StatusOK)
	}
	zero := 0.0
	for _, tc := range []struct {
		name      string
		terms     []partition.TermSpec
		autoIsAlt bool // auto runs a different rule than momentum 0
	}{
		{"default", nil, true},
		{"current_limit", []partition.TermSpec{{Name: "current_limit", Param: 20}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := partition.Options{Seed: 7, MaxIters: 600, Workers: 1, Terms: tc.terms}
			wantZero := direct(opts)
			autoOpts := opts
			autoOpts.Momentum = partition.MomentumAuto
			wantAuto := direct(autoOpts)

			gotZero := served(JobOptions{Seed: 7, MaxIters: 600, Momentum: &zero, Terms: tc.terms})
			if !bytes.Equal(gotZero, wantZero) {
				t.Errorf("momentum 0 body differs from the direct momentum-0 solve:\nserved: %s\ndirect: %s", gotZero, wantZero)
			}
			gotAuto := served(JobOptions{Seed: 7, MaxIters: 600, Terms: tc.terms})
			if !bytes.Equal(gotAuto, wantAuto) {
				t.Errorf("absent-momentum body differs from the direct MomentumAuto solve:\nserved: %s\ndirect: %s", gotAuto, wantAuto)
			}
			if tc.autoIsAlt == bytes.Equal(wantAuto, wantZero) {
				t.Errorf("auto and momentum-0 bodies equal = %v, want %v", !tc.autoIsAlt, !tc.autoIsAlt)
			}
		})
	}
}

// TestProfileRecordsMomentum: a job's profile shows which update rule its
// descent ran — the resolved MomentumAuto for a job without the field,
// the given value otherwise — in the span JSON and the text waterfall.
func TestProfileRecordsMomentum(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	zero := 0.0
	for _, tc := range []struct {
		jo   JobOptions
		want string
	}{
		{JobOptions{Seed: 3, MaxIters: 50}, "momentum=0.9 "},
		{JobOptions{Seed: 3, MaxIters: 50, Momentum: &zero}, "momentum=0 "},
		{JobOptions{Seed: 3, MaxIters: 50, Terms: []partition.TermSpec{{Name: "current_limit"}}}, "momentum=0 "},
	} {
		_, sb, _ := postJob(t, base, JobRequest{Circuit: "KSA8", K: 4, Options: &tc.jo})
		if done := waitTerminal(t, base, sb.ID); done.Status != StatusDone {
			t.Fatalf("job ended %s (%s), want done", done.Status, done.Error)
		}
		var descent string
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			if n.Event.Span == "descent" {
				descent = n.Event.Attrs
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, r := range profileSpans(t, getProfile(t, base, sb.ID)) {
			walk(r)
		}
		if !strings.HasPrefix(descent, tc.want) {
			t.Errorf("%+v: descent attrs %q, want prefix %q", tc.jo, descent, tc.want)
		}
		text := string(getBody(t, base, "/v1/jobs/"+sb.ID+"/profile?format=text", http.StatusOK))
		if !strings.Contains(text, "descent ["+tc.want) {
			t.Errorf("%+v: waterfall lacks %q:\n%s", tc.jo, "descent ["+tc.want, text)
		}
	}
}
