package main

import (
	"reflect"
	"testing"

	"gpp/internal/gen"
)

func TestOpListsFollowTheSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 12345} {
		if a, b := flatOps(seed, 3), flatOps(seed, 3); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: table1-flat lists differ", seed)
		}
		if a, b := vcycleOps(seed, 13), vcycleOps(seed, 13); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: vcycle-par200k lists differ", seed)
		}
		if a, b := serveJobs(seed, 2), serveJobs(seed, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: serve-durable lists differ", seed)
		}
	}
	if reflect.DeepEqual(flatOps(1, 1), flatOps(2, 1)) {
		t.Error("seeds 1 and 2 give the same table1-flat list")
	}
	if reflect.DeepEqual(vcycleOps(1, 13), vcycleOps(2, 13)) {
		t.Error("seeds 1 and 2 give the same vcycle-par200k list")
	}
}

func TestOpListShapes(t *testing.T) {
	ops := flatOps(7, 2)
	if len(ops) != 2*len(gen.BenchmarkNames) {
		t.Fatalf("%d table1-flat ops, want %d", len(ops), 2*len(gen.BenchmarkNames))
	}
	for i, op := range ops {
		if op.Circuit != gen.BenchmarkNames[i%len(gen.BenchmarkNames)] || op.Seed <= 0 {
			t.Errorf("op %d = %+v", i, op)
		}
	}
	jobs := serveJobs(7, 2)
	if len(jobs) != 2*len(gen.BenchmarkNames)*len(objectives) {
		t.Fatalf("%d serve-durable jobs", len(jobs))
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if j.Term != objectives[i%len(objectives)] {
			t.Errorf("job %d has objective %q, want %q", i, j.Term, objectives[i%len(objectives)])
		}
		if seen[string(j.body())] {
			t.Errorf("job %d repeats a request: %s", i, j.body())
		}
		seen[string(j.body())] = true
	}
	perRound := len(gen.BenchmarkNames) * len(objectives)
	for pair := 0; pair < perRound; pair++ {
		if servedTraced(pair) == servedTraced(perRound+pair) {
			t.Errorf("pair %d is traced in both or neither of two rounds", pair)
		}
	}
}

func TestServeJobBody(t *testing.T) {
	got := string(serveJob{Circuit: "KSA8", Term: "xesfq", Seed: 42}.body())
	want := `{"circuit":"KSA8","k":5,"options":{"seed":42,"terms":[{"name":"xesfq"}]}}`
	if got != want {
		t.Errorf("body = %s, want %s", got, want)
	}
	if got := string(serveJob{Circuit: "C432", Seed: 3}.body()); got != `{"circuit":"C432","k":5,"options":{"seed":3}}` {
		t.Errorf("default-objective body = %s", got)
	}
}
