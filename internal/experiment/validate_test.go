package experiment

import (
	"math"
	"strings"
	"testing"

	"cloudlb/internal/elastic"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func fieldsOf(t *testing.T, err error) map[string]string {
	t.Helper()
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	m := make(map[string]string, len(verr.Fields))
	for _, f := range verr.Fields {
		m[f.Field] = f.Msg
	}
	return m
}

func TestValidateOK(t *testing.T) {
	specs := []Spec{
		{App: Wave2D, Cores: []int{8}},
		{App: AppNone, Cores: []int{8}, BG: BGWave2D},
		{App: Mol3D, Cores: []int{16, 32}, Strategies: []StrategyKind{Refine, Greedy},
			Seeds: []int64{1, 2}, BG: BGCloudChurn, Scale: 2,
			Faults: elastic.Schedule{{PE: 1, At: 2}},
			Net:    xnet.Config{DropPct: 5, Seed: 3}},
		// Past 32 cores the cluster grows one node per 4 cores: node 15
		// exists at 64 cores.
		{App: Wave2D, Cores: []int{64}, Net: xnet.Config{StragglerNodes: []int{15}, StragglerFactor: 4,
			Links: []xnet.Link{{Src: 0, Dst: 15, Latency: 1e-4}}}},
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %d: unexpected validation error: %v", i, err)
		}
	}
}

func TestValidateFieldPaths(t *testing.T) {
	sp := Spec{
		App:         AppKind(99),
		Cores:       []int{8, -4, 6},
		Strategies:  []StrategyKind{Refine, StrategyKind(42)},
		Scale:       -1,
		EpsilonFrac: -0.1,
		Net:         xnet.Config{DropPct: 120, StragglerNodes: []int{-1}},
		DropPcts:    []float64{0, 100},
		Periods:     []int{0},
	}
	fields := fieldsOf(t, sp.Validate())
	for _, want := range []string{
		"app", "cores[1]", "cores[2]", "strategies[1]", "scale",
		"epsilon_frac", "net.drop_pct", "net.straggler_nodes[0]",
		"drop_pcts[1]", "periods[0]",
	} {
		if _, ok := fields[want]; !ok {
			t.Errorf("missing field error %q in %v", want, fields)
		}
	}
	if msg := fields["cores[1]"]; !strings.Contains(msg, "multiple of 4") {
		t.Errorf("cores[1] message should name the constraint, got %q", msg)
	}
}

func TestValidateAppNoneNeedsBG(t *testing.T) {
	fields := fieldsOf(t, Spec{App: AppNone, Cores: []int{8}}.Validate())
	if _, ok := fields["app"]; !ok {
		t.Fatalf("AppNone without BGWave2D must flag app, got %v", fields)
	}
}

func TestValidateFaults(t *testing.T) {
	// PE 9 is out of range on an 8-core allocation.
	sp := Spec{App: Wave2D, Cores: []int{8},
		Faults: elastic.Schedule{{PE: 9, At: 1}}}
	fields := fieldsOf(t, sp.Validate())
	if _, ok := fields["faults"]; !ok {
		t.Fatalf("out-of-range revocation must flag faults, got %v", fields)
	}
	// Faults without an application revoke nothing meaningful.
	sp = Spec{App: AppNone, Cores: []int{8}, BG: BGWave2D,
		Faults: elastic.Schedule{{PE: 1, At: 1}}}
	fields = fieldsOf(t, sp.Validate())
	if _, ok := fields["faults"]; !ok {
		t.Fatalf("faults without an app must flag faults, got %v", fields)
	}
}

func TestValidateEmptyCores(t *testing.T) {
	fields := fieldsOf(t, Spec{App: Wave2D}.Validate())
	if _, ok := fields["cores"]; !ok {
		t.Fatalf("empty cores must flag cores, got %v", fields)
	}
}

// TestValidateRejectsRunTimePanics: each Spec would otherwise panic
// inside Run (or, for NaN, run a nonsense network or never finish), so
// Validate must reject it at its wire path.
func TestValidateRejectsRunTimePanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		spec  Spec
		field string
		msg   string
	}{
		{"straggler outside 8-node testbed", Spec{Cores: []int{8},
			Net: xnet.Config{StragglerNodes: []int{99}, StragglerFactor: 4}}, "net.straggler_nodes[0]", "[0,8)"},
		{"straggler outside smallest allocation", Spec{Cores: []int{64, 8},
			Net: xnet.Config{StragglerNodes: []int{1, 8}, StragglerFactor: 4}}, "net.straggler_nodes[1]", "[0,8)"},
		{"link endpoint outside cluster", Spec{Cores: []int{32},
			Net: xnet.Config{Links: []xnet.Link{{Src: 0, Dst: 9}}}}, "net.links[0]", "[0,8)"},
		{"link within one node", Spec{Cores: []int{8},
			Net: xnet.Config{Links: []xnet.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}}}}, "net.links[1]", "differ"},
		{"NaN bg weight", Spec{Cores: []int{8}, BG: BGWave2D, BGWeight: nan}, "bg_weight", "finite"},
		{"NaN drop pct", Spec{Cores: []int{8}, Net: xnet.Config{DropPct: nan}}, "net.drop_pct", "[0,100)"},
		{"Inf straggler factor", Spec{Cores: []int{8},
			Net: xnet.Config{StragglerNodes: []int{1}, StragglerFactor: inf}}, "net.straggler_factor", "finite"},
		{"Inf scale", Spec{Cores: []int{8}, Scale: inf}, "scale", "finite"},
		{"NaN max virtual time", Spec{Cores: []int{8}, MaxVirtualTime: sim.Time(nan)}, "max_virtual_time", "finite"},
		{"NaN fault time", Spec{Cores: []int{8}, Faults: elastic.Schedule{{PE: 1, At: sim.Time(nan)}}}, "faults[0]", "finite"},
		{"-Inf link latency", Spec{Cores: []int{8},
			Net: xnet.Config{Links: []xnet.Link{{Src: 0, Dst: 1, Latency: -inf}}}}, "net.links[0]", "finite"},
		{"NaN sweep axis", Spec{Cores: []int{8}, EpsFracs: []float64{0.02, nan}}, "eps_fracs[1]", "finite"},
		{"NaN drop axis", Spec{Cores: []int{8}, DropPcts: []float64{0, nan}}, "drop_pcts[1]", "[0,100)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.App = Wave2D
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted the Spec")
			}
			fields := fieldsOf(t, err)
			msg, ok := fields[tc.field]
			if !ok || !strings.Contains(msg, tc.msg) {
				t.Fatalf("want %s error mentioning %q, got %v", tc.field, tc.msg, fields)
			}
		})
	}
}
