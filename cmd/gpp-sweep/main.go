// Command gpp-sweep solves a declarative scenario matrix — K axes, c-weight
// grids, and regime term portfolios — in one invocation and prints the
// ranked result table.
//
// By default the matrix is solved in process through the library facade.
// With -addr the same spec is submitted to a running gpp-serve daemon as
// POST /v1/sweeps, where every cell is an ordinary content-addressed job:
// cache-hittable, journaled, and stealable by cluster peers.
//
// The spec is a JSON document (see internal/sweep.Spec):
//
//	{
//	  "ks": [3, 5, 7],
//	  "regimes": [
//	    {"name": "paper"},
//	    {"name": "xesfq", "terms": [{"name": "xesfq"}]},
//	    {"name": "ersfq", "terms": [{"name": "current_limit", "weight": 2, "param": 50}]}
//	  ]
//	}
//
// Usage:
//
//	gpp-sweep -circuit KSA32 -ks 3,5,7                     # in-process K sweep
//	gpp-sweep -circuit KSA32 -spec spec.json               # full spec from a file ("-" = stdin)
//	gpp-sweep -circuit KSA32 -spec spec.json -json out.json # save the ranked document
//	gpp-sweep -addr http://localhost:8080 -circuit KSA32 -spec spec.json
//	gpp-inspect sweep out.json                             # re-render a saved document
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"gpp"
	"gpp/internal/serve"
	"gpp/internal/sweep"
)

func main() {
	circuit := flag.String("circuit", "", "benchmark circuit name (KSA8, C3540, par6000, ...)")
	defPath := flag.String("def", "", "DEF netlist instead of -circuit")
	specPath := flag.String("spec", "", "sweep spec JSON file (\"-\" = stdin)")
	ks := flag.String("ks", "", "comma-separated K axis when no -spec file is given (e.g. 3,5,7)")
	k := flag.Int("k", 0, "fallback plane count when the spec declares no K axis")
	rankBy := flag.String("rank-by", "", "ranking metric: cost (default) or b_max; overrides the spec")
	seed := flag.Int64("seed", 1, "solver random seed for every cell")
	workers := flag.Int("workers", 0, "worker goroutines per cell (0 = one per CPU)")
	addr := flag.String("addr", "", "gpp-serve base URL; submit the sweep as POST /v1/sweeps instead of solving in process")
	timeoutMS := flag.Int64("timeout-ms", 0, "with -addr, per-cell deadline in milliseconds (regime timeout_ms overrides)")
	jsonOut := flag.String("json", "", "write the ranked sweep document as JSON to this path")
	flag.Parse()

	spec, err := loadSpec(*specPath, *ks, *rankBy)
	if err != nil {
		fatal(err)
	}

	var doc *sweep.Doc
	if *addr != "" {
		doc, err = runRemote(*addr, *circuit, *defPath, *k, spec, *timeoutMS, *seed, *workers)
	} else {
		doc, err = runLocal(*circuit, *defPath, *k, spec, *seed, *workers)
	}
	if err != nil {
		fatal(err)
	}

	sweep.RenderTable(os.Stdout, doc)
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gpp-sweep: wrote sweep document to %s\n", *jsonOut)
	}
	if doc.Failed > 0 {
		fmt.Fprintf(os.Stderr, "gpp-sweep: %d of %d cells failed (excluded from the ranking)\n",
			doc.Failed, len(doc.Cells))
	}
}

// loadSpec reads the spec file, or assembles a minimal spec from the -ks
// axis; -rank-by overrides either source.
func loadSpec(path, ks, rankBy string) (sweep.Spec, error) {
	var spec sweep.Spec
	switch {
	case path != "" && ks != "":
		return spec, fmt.Errorf("use either -spec or -ks, not both")
	case path != "":
		var raw []byte
		var err error
		if path == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(path)
		}
		if err != nil {
			return spec, err
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, fmt.Errorf("spec %s: %v", path, err)
		}
	case ks != "":
		for _, part := range strings.Split(ks, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil {
				return spec, fmt.Errorf("-ks %q: %v", part, err)
			}
			spec.Ks = append(spec.Ks, n)
		}
	default:
		return spec, fmt.Errorf("need -spec or -ks (see -h)")
	}
	if rankBy != "" {
		spec.RankBy = rankBy
	}
	return spec, nil
}

// runLocal expands and solves the matrix in process via the facade and
// shapes the outcome as the shared sweep document.
func runLocal(circuit, defPath string, k int, spec sweep.Spec, seed int64, workers int) (*sweep.Doc, error) {
	c, err := loadCircuit(circuit, defPath)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(spec.Ks) == 0 && spec.KRange == nil {
		spec.Ks = []int{k}
	}
	// MomentumAuto is what a daemon cell runs when the request names no
	// momentum, so local and -addr runs of one spec return the same cells.
	res, err := gpp.Sweep(c, spec, gpp.Options{Seed: seed, Workers: workers, Momentum: gpp.MomentumAuto})
	if err != nil {
		return nil, err
	}
	doc := &sweep.Doc{
		ID: "local", Status: "done", Circuit: c.Name, RankBy: spec.RankBy,
		Cells:   make([]sweep.CellDoc, len(res.Cells)),
		Ranking: res.Ranking, Pareto: res.Pareto,
	}
	for i, sc := range res.Cells {
		cd := sweep.CellDoc{Index: sc.Index, K: sc.K, Regime: sc.Regime, Terms: sc.Terms}
		if sc.Err != nil {
			cd.Status, cd.Error = "failed", sc.Err.Error()
			doc.Failed++
		} else {
			cost, bmax := sc.Cost, sc.BMaxMA
			cd.Status, cd.Cost, cd.BMaxMA = "done", &cost, &bmax
			doc.Done++
		}
		doc.Cells[i] = cd
	}
	return doc, nil
}

func loadCircuit(circuit, defPath string) (*gpp.Circuit, error) {
	switch {
	case circuit != "" && defPath != "":
		return nil, fmt.Errorf("use either -circuit or -def, not both")
	case circuit != "":
		return gpp.Benchmark(circuit)
	case defPath != "":
		f, err := os.Open(defPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gpp.ReadDEF(f)
	default:
		return nil, fmt.Errorf("need -circuit or -def (see -h)")
	}
}

// runRemote submits the sweep to a gpp-serve daemon and polls until it
// settles; the daemon's status document is the shared document shape.
func runRemote(addr, circuit, defPath string, k int, spec sweep.Spec, timeoutMS, seed int64, workers int) (*sweep.Doc, error) {
	req := serve.SweepRequest{
		Circuit: circuit, K: k, Spec: spec, TimeoutMS: timeoutMS,
		Options: &serve.JobOptions{Seed: seed, Workers: workers},
	}
	if defPath != "" {
		if circuit != "" {
			return nil, fmt.Errorf("use either -circuit or -def, not both")
		}
		raw, err := os.ReadFile(defPath)
		if err != nil {
			return nil, err
		}
		req.DEF = string(raw)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	base := strings.TrimRight(addr, "/")
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var doc sweep.Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("submit response: %v", err)
	}
	fmt.Fprintf(os.Stderr, "gpp-sweep: submitted %s (%d cells) to %s\n", doc.ID, len(doc.Cells), base)
	lastDone := -1
	for {
		resp, err := http.Get(base + "/v1/sweeps/" + doc.ID)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if fin := doc.Done + doc.Failed; fin != lastDone {
			lastDone = fin
			fmt.Fprintf(os.Stderr, "gpp-sweep: %d/%d cells finished\n", fin, len(doc.Cells))
		}
		switch doc.Status {
		case "done", "failed", "cancelled":
			return &doc, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpp-sweep:", err)
	os.Exit(1)
}
