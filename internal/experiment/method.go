package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"cloudlb/internal/obs"
	"cloudlb/internal/stats"
	"cloudlb/internal/trace"
)

// Output is what one evaluation method produced: its result rows (the
// method's row slice, stored by the service as rows.json) and its tables
// keyed by artifact name ("table.csv", plus "energy.csv" for evaluate).
type Output struct {
	Rows   any
	Tables map[string]*stats.Table
	// Trace is the Chrome trace of a single-scenario "scenarios" batch
	// (encode it with obs.WriteChrome), nil otherwise.
	Trace []obs.ChromeEvent
}

type methodFunc func(Spec, context.Context, Options) (*Output, error)

// methods is the one method-name dispatch shared by the scenario service
// (POST /api/v1/jobs) and cmd/figures, in Methods order.
var methods = []struct {
	name string
	run  methodFunc
}{
	{"scenarios", Spec.runScenarios},
	{"evaluate", func(sp Spec, ctx context.Context, opts Options) (*Output, error) {
		evals, err := sp.Evaluate(ctx, opts)
		if err != nil {
			return nil, err
		}
		return &Output{Rows: evals, Tables: map[string]*stats.Table{
			"table.csv":  Fig2Table(sp.App, evals),
			"energy.csv": Fig4Table(sp.App, evals),
		}}, nil
	}},
	{"compare", tabulate(Spec.CompareStrategies, CompareTable)},
	{"sweep", tabulate(Spec.SweepRefineParams, SweepTable)},
	{"elasticity", tabulate(Spec.Elasticity, Fig5Table)},
	{"net", tabulate(Spec.NetworkInterference, Fig6Table)},
}

// tabulate adapts a Spec method whose rows render as one table.csv.
func tabulate[R any](eval func(Spec, context.Context, Options) (R, error), table func(R) *stats.Table) methodFunc {
	return func(sp Spec, ctx context.Context, opts Options) (*Output, error) {
		rows, err := eval(sp, ctx, opts)
		if err != nil {
			return nil, err
		}
		return &Output{Rows: rows, Tables: map[string]*stats.Table{"table.csv": table(rows)}}, nil
	}
}

// Methods lists the method names RunMethod accepts:
//
//	scenarios    raw Cores × Strategies × Seeds batch (one row per scenario)
//	evaluate     Figure 2/4 interference matrix ([]Eval rows)
//	compare      strategy comparison ([]StrategyResult rows)
//	sweep        RefineLB parameter sweep ([]SweepPoint rows)
//	elasticity   revocation/replacement penalties ([]ElasticEval rows)
//	net          network interference matrix ([]NetEval rows)
func Methods() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

// RunMethod evaluates the Spec with the named method and renders its
// tables. It is the single entry point behind both a service job and a
// table figure, so the same (method, Spec) pair produces the same rows
// either way.
func (sp Spec) RunMethod(ctx context.Context, method string, opts Options) (*Output, error) {
	for _, m := range methods {
		if m.name == method {
			return m.run(sp, ctx, opts)
		}
	}
	return nil, fmt.Errorf("experiment: unknown method %q (want one of %v)", method, Methods())
}

// resultRow is one scenario of the scenarios method's rows: Result,
// NaN-safe and snake_cased.
type resultRow struct {
	AppWall        nanFloat `json:"app_wall"`
	BGWall         nanFloat `json:"bg_wall"`
	AvgPowerW      float64  `json:"avg_power_w"`
	EnergyJ        float64  `json:"energy_j"`
	Migrations     int      `json:"migrations"`
	LBSteps        int      `json:"lb_steps"`
	Evacuations    int      `json:"evacuations"`
	Events         uint64   `json:"events"`
	NetDrops       uint64   `json:"net_drops"`
	NetRetransmits uint64   `json:"net_retransmits"`
}

// nanFloat is a float64 that encodes NaN as JSON null. Result.AppWall is
// NaN for background-only runs and Result.BGWall is NaN without a
// background job; encoding/json rejects NaN outright.
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// runScenarios runs the Spec's raw Scenarios batch. A single-scenario
// batch also records its Chrome trace.
func (sp Spec) runScenarios(ctx context.Context, opts Options) (*Output, error) {
	batch := sp.Scenarios()
	var rec *trace.Recorder
	if len(batch) == 1 {
		rec = trace.NewRecorder()
		batch[0].Trace = rec
	}
	results, err := sp.run(ctx, opts, batch)
	if err != nil {
		return nil, err
	}
	rows := make([]resultRow, len(results))
	t := stats.NewTable("cores", "strategy", "seed", "app wall s", "bg wall s", "migrations", "lb steps", "evacuations", "events")
	for i, r := range results {
		rows[i] = resultRow{
			AppWall: nanFloat(r.AppWall), BGWall: nanFloat(r.BGWall),
			AvgPowerW: r.AvgPowerW, EnergyJ: r.EnergyJ,
			Migrations: r.Migrations, LBSteps: r.LBSteps,
			Evacuations: r.Evacuations, Events: r.Events,
			NetDrops: r.NetDrops, NetRetransmits: r.NetRetransmits,
		}
		s := batch[i]
		t.AddRow(s.Cores, s.Strategy.String(), s.Seed,
			finiteOrZero(r.AppWall), finiteOrZero(r.BGWall),
			r.Migrations, r.LBSteps, r.Evacuations, r.Events)
	}
	return &Output{Rows: rows, Tables: map[string]*stats.Table{"table.csv": t}, Trace: rec.ChromeEvents()}, nil
}
