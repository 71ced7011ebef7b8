package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// resultsRows reads results/<name>, one of the committed full-scale
// figure CSVs, into one map per data row keyed by column header.
func resultsRows(t *testing.T, name string) (path string, rows []map[string]float64) {
	t.Helper()
	path = filepath.Join("..", "..", "results", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s: no data rows", path)
	}
	for _, rec := range recs[1:] {
		row := map[string]float64{}
		for i, col := range recs[0] {
			v, err := strconv.ParseFloat(rec[i], 64)
			if err != nil {
				t.Fatalf("%s: column %q: %v", path, col, err)
			}
			row[col] = v
		}
		rows = append(rows, row)
	}
	return path, rows
}

// TestPaperClaimsHoldInResults checks each Figure 2 and Figure 4 claim
// that EXPERIMENTS.md marks **holds** as a named predicate over the
// committed full-scale CSVs, so a change that regenerates results/ and
// breaks a claim fails by the claim's name, with the file, row and
// values.
func TestPaperClaimsHoldInResults(t *testing.T) {
	apps := []string{"jacobi2d", "wave2d", "mol3d"}
	// cells calls check on every data row of fig<fig>_<app>.csv.
	cells := func(t *testing.T, fig string, apps []string, check func(path string, row int, r map[string]float64)) {
		for _, app := range apps {
			path, rows := resultsRows(t, "fig"+fig+"_"+app+".csv")
			for i, r := range rows {
				check(path, i+1, r)
			}
		}
	}
	t.Run("fig2: LB penalty at most half the noLB penalty", func(t *testing.T) {
		cells(t, "2", apps, func(path string, row int, r map[string]float64) {
			if r["LB %"] > 0.5*r["noLB %"] {
				t.Errorf("%s row %d (%v cores): LB %v%% > 0.5 × noLB %v%%", path, row, r["cores"], r["LB %"], r["noLB %"])
			}
		})
	})
	t.Run("fig2: LB penalty falls with core count", func(t *testing.T) {
		for _, app := range apps {
			path, rows := resultsRows(t, "fig2_"+app+".csv")
			for i := 1; i < len(rows); i++ {
				prev, r := rows[i-1], rows[i]
				if !(r["cores"] > prev["cores"] && r["LB %"] < prev["LB %"]) {
					t.Errorf("%s row %d (%v cores): LB %v%%, not below row %d's %v%% at %v cores",
						path, i+1, r["cores"], r["LB %"], i, prev["LB %"], prev["cores"])
				}
			}
		}
	})
	t.Run("fig2: Mol3D noLB penalty near 400% at 4 cores", func(t *testing.T) {
		path, rows := resultsRows(t, "fig2_mol3d.csv")
		if r := rows[0]; r["cores"] != 4 || r["noLB %"] < 300 || r["noLB %"] > 500 {
			t.Errorf("%s row 1 (%v cores): noLB %v%%, want 4 cores within 300–500%%", path, r["cores"], r["noLB %"])
		}
	})
	t.Run("fig2: LB lowers the background job's penalty for the stencils", func(t *testing.T) {
		cells(t, "2", []string{"jacobi2d", "wave2d"}, func(path string, row int, r map[string]float64) {
			if r["BG LB %"] >= r["BG noLB %"] {
				t.Errorf("%s row %d (%v cores): background job LB %v%% >= noLB %v%%", path, row, r["cores"], r["BG LB %"], r["BG noLB %"])
			}
		})
	})
	t.Run("fig4: LB draws more power than noLB", func(t *testing.T) {
		cells(t, "4", apps, func(path string, row int, r map[string]float64) {
			if r["LB W"] <= r["noLB W"] {
				t.Errorf("%s row %d (%v cores): LB %v W <= noLB %v W", path, row, r["cores"], r["LB W"], r["noLB W"])
			}
		})
	})
	t.Run("fig4: LB cuts the energy overhead by at least 38%", func(t *testing.T) {
		cells(t, "4", apps, func(path string, row int, r map[string]float64) {
			if lb, nolb := r["LB energy ovh %"], r["noLB energy ovh %"]; lb > 0.62*nolb {
				t.Errorf("%s row %d (%v cores): LB energy overhead %v%% > 0.62 × noLB %v%%", path, row, r["cores"], lb, nolb)
			}
		})
	})
}
