package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// boundedMetric is an end-to-end metric with its regression bound: the
// share of the parent's median by which it may worsen.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// minPairs is the fewest base/head pairs a gain can be claimed on.
const minPairs = 10

// judgement compares one end-to-end metric of one workload across two
// sets of runs.
type judgement struct {
	base, head  [3]float64 // quartiles
	wins, pairs int
	verdict     string
}

// judge decides improved, unchanged, regressed or unresolved. Runs pair
// up in order (base[i] with head[i]), ties counting for neither side.
//
//   - improved: at least minPairs pairs, head wins at least nine tenths of
//     them, and the medians differ in head's favour by more than the
//     base's own spread (the distance between its quartiles);
//   - unresolved: not improved, and the base's spread is wider than the
//     bound, unless every head run beats every base run;
//   - regressed: head's median is worse than base's by more than bound;
//   - unchanged: otherwise.
func judge(base, head []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.base[0], j.base[1], j.base[2] = quartiles(base)
	j.head[0], j.head[1], j.head[2] = quartiles(head)
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	j.pairs = min(len(base), len(head))
	for i := 0; i < j.pairs; i++ {
		if better(head[i], base[i]) {
			j.wins++
		}
	}
	bm, hm := j.base[1], j.head[1]
	spread := j.base[2] - j.base[0]
	worse := hm > bm*(1+bound)
	if !lowerBetter {
		worse = hm < bm*(1-bound)
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs && better(hm, bm) && math.Abs(hm-bm) > spread:
		j.verdict = "improved"
	case spread > bound*math.Abs(bm) && !allBetter:
		j.verdict = "unresolved"
	case worse && !allBetter:
		j.verdict = "regressed"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// compareMain prints, per workload and end-to-end metric, both sides'
// median and quartiles, the pair win fraction and the verdict. It fails
// when any pair regressed.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "directory of the parent's run records")
	headPath := fs.String("head", "", "directory of the change's run records")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *headPath == "" {
		return errors.New("-base and -head are required")
	}
	bf, err := loadBenchmarkFile(*benchPath)
	if err != nil {
		return err
	}
	load := func(dir string) (map[string][]*record, error) {
		recs, err := readRecords(dir)
		if err != nil {
			return nil, err
		}
		by := map[string][]*record{}
		for _, r := range recs {
			// Traced runs measure per-layer numbers, invalid and failed
			// runs measure nothing comparable.
			if r.Traced || !r.Valid || !r.Correct {
				fmt.Fprintf(w, "skipping %s run (seed %d): traced=%v valid=%v correct=%v\n", r.Workload, r.Seed, r.Traced, r.Valid, r.Correct)
				continue
			}
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, nil
	}
	base, err := load(*basePath)
	if err != nil {
		return err
	}
	head, err := load(*headPath)
	if err != nil {
		return err
	}
	values := func(recs []*record, name string) []float64 {
		var vs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[name]; ok {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-17s %-13s %-32s %-32s %-7s %s\n", "workload", "metric", "base q1/median/q3", "head q1/median/q3", "wins", "verdict")
	regressed := 0
	for _, wl := range bf.Workloads {
		if len(base[wl.Name]) == 0 && len(head[wl.Name]) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			bv, hv := values(base[wl.Name], m.Name), values(head[wl.Name], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(w, "%-17s %-13s missing on one side (base %d runs, head %d runs)\n", wl.Name, m.Name, len(bv), len(hv))
				continue
			}
			j := judge(bv, hv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-17s %-13s %-32s %-32s %2d/%-4d %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", j.base[0], j.base[1], j.base[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", j.head[0], j.head[1], j.head[2]),
				j.wins, j.pairs, j.verdict)
			if j.verdict == "regressed" {
				regressed++
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}
