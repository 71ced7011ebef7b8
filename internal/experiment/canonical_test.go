package experiment

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cloudlb/internal/elastic"
	"cloudlb/internal/xnet"
)

// TestCanonicalJSONGolden pins the canonical encoding byte for byte. A
// change here is a cache-format change: if it is intentional, bump
// SpecSchemaVersion and update the goldens together.
func TestCanonicalJSONGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{
			name: "minimal",
			spec: Spec{App: Wave2D, Cores: []int{8}},
			want: `{"v":1,"app":"Wave2D","cores":[8]}`,
		},
		{
			name: "rich",
			spec: Spec{
				App:         Mol3D,
				Cores:       []int{16, 32},
				Strategies:  []StrategyKind{Refine, Greedy},
				Seeds:       []int64{1, 2},
				Scale:       2,
				BG:          BGWave2D,
				BGWeight:    4,
				EpsilonFrac: 0.05,
				Faults: elastic.Schedule{
					{PE: 3, At: 5},
					{PE: 1, At: 2, Restore: 8},
				},
				Net: xnet.Config{
					DropPct:         1,
					StragglerNodes:  []int{3, 1, 3},
					StragglerFactor: 4,
				},
				DropPcts:        []float64{0, 1},
				StraggleFactors: []float64{1, 4},
			},
			want: `{"v":1,"app":"Mol3D","cores":[16,32],` +
				`"strategies":["RefineLB","GreedyLB"],"seeds":[1,2],` +
				`"scale":2,"bg":"wave2d","bg_weight":4,"epsilon_frac":0.05,` +
				`"faults":[{"pe":1,"at":2,"restore":8},{"pe":3,"at":5}],` +
				`"net":{"straggler_nodes":[1,3],"straggler_factor":4,"drop_pct":1},` +
				`"drop_pcts":[0,1],"straggle_factors":[1,4]}`,
		},
		{
			// Floats whose shortest 'g' form and encoding/json's default
			// form differ (1e-05 vs 0.00005, 1.25e+09 vs 1250000000), a
			// link override, and an explicit retransmit policy.
			name: "net-floats",
			spec: Spec{
				App:   Jacobi2D,
				Cores: []int{16},
				Net: xnet.Config{
					InterNodeLatency:   1e-5,
					InterNodeBandwidth: 1.25e9,
					Links: []xnet.Link{
						{Src: 1, Dst: 0, Latency: 2.5e-4},
						{Src: 0, Dst: 1, Bandwidth: 5e7},
					},
					DropPct:           0.5,
					Seed:              42,
					RetransmitTimeout: 3e-4,
					MaxAttempts:       7,
				},
			},
			want: `{"v":1,"app":"Jacobi2D","cores":[16],` +
				`"net":{"inter_node_latency":1e-05,"inter_node_bandwidth":1.25e+09,` +
				`"links":[{"src":1,"dst":0,"latency":0.00025},{"src":0,"dst":1,"bandwidth":5e+07}],` +
				`"drop_pct":0.5,"seed":42,"retransmit_timeout":0.0003,"max_attempts":7}}`,
		},
		{
			name: "faults-warning-replacement",
			spec: Spec{
				App:        Wave2D,
				Cores:      []int{8},
				Strategies: []StrategyKind{NoLB, Refine, RefineSwap},
				Seeds:      []int64{3},
				Faults: elastic.Schedule{
					{PE: 5, At: 1.5, Warning: 0.25, Restore: 4, ReplacementCore: 9},
					{PE: 2, At: 1.5, Warning: 1e-5},
				},
			},
			want: `{"v":1,"app":"Wave2D","cores":[8],` +
				`"strategies":["noLB","RefineLB","RefineSwapLB"],"seeds":[3],` +
				`"faults":[{"pe":2,"at":1.5,"warning":1e-05},` +
				`{"pe":5,"at":1.5,"warning":0.25,"restore":4,"replacement_core":9}]}`,
		},
		{
			name: "knobs-and-sweep-axes",
			spec: Spec{
				App:            Wave2D,
				Cores:          []int{4},
				Scale:          0.05,
				BG:             BGCloudChurn,
				BGIters:        1200,
				SyncEvery:      5,
				CharesPerCore:  98,
				StencilBlock:   4,
				DiffRounds:     8,
				DiffTol:        0.1,
				Hierarchical:   true,
				MaxVirtualTime: 2.5e4,
				Net:            xnet.Config{StragglerNodes: []int{2}, StragglerFactor: 1},
				EpsFracs:       []float64{0.01, 5e-5},
				Periods:        []int{5, 40},
			},
			want: `{"v":1,"app":"Wave2D","cores":[4],"scale":0.05,"bg":"churn",` +
				`"bg_iters":1200,"sync_every":5,"chares_per_core":98,"stencil_block":4,` +
				`"diff_rounds":8,"diff_tol":0.1,"hierarchical":true,` +
				`"max_virtual_time":25000,"eps_fracs":[0.01,5e-05],"periods":[5,40]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := string(tc.spec.CanonicalJSON())
			if got != tc.want {
				t.Fatalf("canonical JSON mismatch\n got: %s\nwant: %s", got, tc.want)
			}
			if !json.Valid([]byte(got)) {
				t.Fatalf("canonical JSON is not valid JSON: %s", got)
			}
		})
	}
}

// TestCanonicalElidesDefaults: spelling out every default explicitly must
// encode (and hash) identically to the zero-valued Spec — they run the
// same simulation.
func TestCanonicalElidesDefaults(t *testing.T) {
	bare := Spec{App: Jacobi2D, Cores: []int{8}}
	spelled := Spec{
		App:            Jacobi2D,
		Cores:          []int{8},
		Strategies:     []StrategyKind{NoLB},
		Seeds:          []int64{1},
		Scale:          1,
		BGWeight:       1,
		BGIters:        600,
		SyncEvery:      10,
		CharesPerCore:  32,
		StencilBlock:   16,
		EpsilonFrac:    0.02,
		DiffRounds:     16,
		DiffTol:        0.05,
		MaxVirtualTime: 10000,
		Net:            xnet.DefaultConfig(),
	}
	if g, w := string(spelled.CanonicalJSON()), string(bare.CanonicalJSON()); g != w {
		t.Fatalf("explicit defaults must elide to the bare encoding\n got: %s\nwant: %s", g, w)
	}
	if spelled.Hash() != bare.Hash() {
		t.Fatalf("explicit defaults changed the hash: %s vs %s", spelled.Hash(), bare.Hash())
	}
}

// TestZeroKnobRunsAsItsDefault is the property behind "equal hash ⇒
// equal simulation" that the result cache relies on: a knob the
// normalizer elides at its default runs, left at zero, to the same
// Result as spelled out at that default.
func TestZeroKnobRunsAsItsDefault(t *testing.T) {
	zero := Spec{App: Wave2D, Cores: []int{4}, Strategies: []StrategyKind{Refine, Diffusion},
		BG: BGWave2D, Seeds: []int64{1}, Scale: quickScale}
	want, err := RunAll(context.Background(), zero.Scenarios())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		knob string
		set  func(*Spec)
	}{
		{"epsilon_frac", func(sp *Spec) { sp.EpsilonFrac = defaultEpsilonFrac }},
		{"diff_rounds", func(sp *Spec) { sp.DiffRounds = defaultDiffRounds }},
		{"diff_tol", func(sp *Spec) { sp.DiffTol = defaultDiffTol }},
		{"max_virtual_time", func(sp *Spec) { sp.MaxVirtualTime = defaultMaxVirtualTime }},
	} {
		spelled := zero
		tc.set(&spelled)
		if spelled.Hash() != zero.Hash() {
			t.Fatalf("%s at its default changed the hash", tc.knob)
		}
		got, err := RunAll(context.Background(), spelled.Scenarios())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !resultsEqual(got[i], want[i]) {
				t.Errorf("%s at its default: scenario %d ran to %+v, at zero to %+v", tc.knob, i, got[i], want[i])
			}
		}
	}
}

// TestHashOrderInsensitive: declaration order of the fault schedule and
// the straggler node set must not leak into the hash.
func TestHashOrderInsensitive(t *testing.T) {
	a := Spec{
		App: Wave2D, Cores: []int{8},
		Faults: elastic.Schedule{{PE: 1, At: 2}, {PE: 3, At: 5}},
		Net:    xnet.Config{StragglerNodes: []int{1, 3}, StragglerFactor: 4},
	}
	b := Spec{
		App: Wave2D, Cores: []int{8},
		Faults: elastic.Schedule{{PE: 3, At: 5}, {PE: 1, At: 2}},
		Net:    xnet.Config{StragglerNodes: []int{3, 1, 1}, StragglerFactor: 4},
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("permuted schedules/node sets must hash identically:\n%s\n%s",
			a.CanonicalJSON(), b.CanonicalJSON())
	}
}

// TestHashShardsExcluded: the shard count is an execution knob — results
// are byte-identical at any value — so it must not split the cache.
func TestHashShardsExcluded(t *testing.T) {
	a := Spec{App: Wave2D, Cores: []int{8}, Shards: 1}
	b := Spec{App: Wave2D, Cores: []int{8}, Shards: 8}
	if a.Hash() != b.Hash() {
		t.Fatal("Shards must be excluded from the canonical hash")
	}
}

// TestParseSpecShardsHashedAway: a submitted document may still carry the
// "shards" execution knob; it parses into Spec.Shards and leaves the
// canonical encoding, and so the hash, untouched.
func TestParseSpecShardsHashedAway(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"app":"Wave2D","cores":[8],"shards":4}`))
	if err != nil {
		t.Fatalf("ParseSpec with shards: %v", err)
	}
	if sp.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", sp.Shards)
	}
	if got, want := string(sp.CanonicalJSON()), `{"v":1,"app":"Wave2D","cores":[8]}`; got != want {
		t.Fatalf("shards leaked into the canonical form\n got: %s\nwant: %s", got, want)
	}
	if bare := (Spec{App: Wave2D, Cores: []int{8}}); sp.Hash() != bare.Hash() {
		t.Fatal("a parsed shards key changed the hash")
	}
}

// TestHashSensitivity: knobs that change the simulation must change the
// hash.
func TestHashSensitivity(t *testing.T) {
	base := Spec{App: Wave2D, Cores: []int{8}}
	variants := map[string]Spec{
		"app":    {App: Jacobi2D, Cores: []int{8}},
		"cores":  {App: Wave2D, Cores: []int{16}},
		"seed":   {App: Wave2D, Cores: []int{8}, Seeds: []int64{2}},
		"scale":  {App: Wave2D, Cores: []int{8}, Scale: 0.5},
		"bg":     {App: Wave2D, Cores: []int{8}, BG: BGWave2D},
		"net":    {App: Wave2D, Cores: []int{8}, Net: xnet.Config{DropPct: 1}},
		"faults": {App: Wave2D, Cores: []int{8}, Faults: elastic.Schedule{{PE: 0, At: 1}}},
	}
	for name, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("%s variant must change the hash", name)
		}
	}
}

// TestCanonicalRoundTrip: a canonical document parses back (via the wire
// decoder) to a Spec with the same canonical encoding — the store can
// reconstruct the submitted scenario from its own artifact.
func TestCanonicalRoundTrip(t *testing.T) {
	sp := Spec{
		App: Mol3D, Cores: []int{16}, Strategies: []StrategyKind{Refine},
		BG: BGWave2D, BGWeight: 4, Scale: 2,
		Net:    xnet.Config{DropPct: 2, Seed: 7},
		Faults: elastic.Schedule{{PE: 2, At: 3, Warning: 1}},
	}
	doc := sp.CanonicalJSON()
	back, err := ParseSpec(doc)
	if err != nil {
		t.Fatalf("ParseSpec(canonical): %v", err)
	}
	if g, w := string(back.CanonicalJSON()), string(doc); g != w {
		t.Fatalf("round trip drifted\n got: %s\nwant: %s", g, w)
	}
}

// TestParseSpecRejectsUnknownFields: a typo'd knob is an error, not a
// silently defaulted run.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"app":"Wave2D","cores":[8],"coers":[4]}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
	// A field the Spec no longer has is unknown too: a document that sets
	// it must not run without it.
	if _, err := ParseSpec([]byte(`{"app":"Wave2D","cores":[8],"interactivity_bonus":0.5}`)); err == nil ||
		!strings.Contains(err.Error(), "interactivity_bonus") {
		t.Fatalf("interactivity_bonus: err %v, want a rejection naming the field", err)
	}
	if _, err := ParseSpec([]byte(`{"app":"NoSuchApp","cores":[8]}`)); err == nil {
		t.Fatal("unknown app name must be rejected")
	}
}

func TestEnumJSONRoundTrip(t *testing.T) {
	for _, k := range []StrategyKind{NoLB, Refine, RefineInternal, RefineSwap, Greedy, Threshold, CostAware, Diffusion} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back StrategyKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("strategy %v round trip: got %v, err %v", k, back, err)
		}
	}
	for _, a := range []AppKind{AppNone, Jacobi2D, Wave2D, Mol3D} {
		b, _ := json.Marshal(a)
		var back AppKind
		if err := json.Unmarshal(b, &back); err != nil || back != a {
			t.Fatalf("app %v round trip: got %v, err %v", a, back, err)
		}
	}
	for _, g := range []BGKind{BGNone, BGWave2D, BGCloudChurn} {
		b, _ := json.Marshal(g)
		var back BGKind
		if err := json.Unmarshal(b, &back); err != nil || back != g {
			t.Fatalf("bg %v round trip: got %v, err %v", g, back, err)
		}
	}
}
