package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"cloudlb/internal/elastic"
	"cloudlb/internal/lb"
	"cloudlb/internal/xnet"
)

// SpecSchemaVersion is the version stamped into every canonical Spec
// encoding (the "v" field). Bump it whenever the canonical field set, a
// default, or a normalization rule changes: the version is hashed, so a
// bump invalidates every content-addressed cache entry instead of
// silently serving results computed under the old semantics. Removing a
// field that no parseable Spec can carry needs no bump: the
// interactivity_bonus field was omitempty, so no Spec that still parses
// ever encoded it, and ParseSpec refuses a document that sets it.
const SpecSchemaVersion = 1

// ParseAppKind maps a command-line or wire name to an application.
func ParseAppKind(name string) (AppKind, error) {
	switch strings.ToLower(name) {
	case "none":
		return AppNone, nil
	case "jacobi2d":
		return Jacobi2D, nil
	case "wave2d":
		return Wave2D, nil
	case "mol3d":
		return Mol3D, nil
	}
	return 0, fmt.Errorf("experiment: unknown app %q", name)
}

// ParseStrategyKind maps a command-line or wire name to a balancer. Both
// the short CLI names ("refine") and the String() names ("RefineLB") are
// accepted, case-insensitively.
func ParseStrategyKind(name string) (StrategyKind, error) {
	switch strings.ToLower(name) {
	case "none", "nolb":
		return NoLB, nil
	case "refine", "refinelb":
		return Refine, nil
	case "refineinternal", "refineinternallb":
		return RefineInternal, nil
	case "refineswap", "refineswaplb":
		return RefineSwap, nil
	case "greedy", "greedylb":
		return Greedy, nil
	case "threshold", "thresholdlb":
		return Threshold, nil
	case "costaware", "migrationcostawarelb":
		return CostAware, nil
	case "diffusion", "diffusionlb":
		return Diffusion, nil
	}
	return 0, fmt.Errorf("experiment: unknown strategy %q", name)
}

func (b BGKind) String() string {
	switch b {
	case BGNone:
		return "none"
	case BGWave2D:
		return "wave2d"
	case BGCloudChurn:
		return "churn"
	}
	return "unknown"
}

// ParseBGKind maps a wire name to an interference configuration.
func ParseBGKind(name string) (BGKind, error) {
	switch strings.ToLower(name) {
	case "none", "":
		return BGNone, nil
	case "wave2d", "bg":
		return BGWave2D, nil
	case "churn":
		return BGCloudChurn, nil
	}
	return 0, fmt.Errorf("experiment: unknown background kind %q", name)
}

// MarshalJSON encodes the application by name ("Wave2D"), the form the
// canonical Spec encoding and the service submit API use.
func (a AppKind) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts the String() names, case-insensitively.
func (a *AppKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("experiment: app must be a string name: %w", err)
	}
	k, err := ParseAppKind(s)
	if err != nil {
		return err
	}
	*a = k
	return nil
}

// MarshalJSON encodes the balancer by name ("RefineLB").
func (s StrategyKind) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts both the String() names and the short CLI names.
func (s *StrategyKind) UnmarshalJSON(data []byte) error {
	var v string
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("experiment: strategy must be a string name: %w", err)
	}
	k, err := ParseStrategyKind(v)
	if err != nil {
		return err
	}
	*s = k
	return nil
}

// MarshalJSON encodes the interference kind by name ("wave2d").
func (b BGKind) MarshalJSON() ([]byte, error) { return json.Marshal(b.String()) }

// UnmarshalJSON accepts the String() names.
func (b *BGKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("experiment: bg must be a string name: %w", err)
	}
	k, err := ParseBGKind(s)
	if err != nil {
		return err
	}
	*b = k
	return nil
}

// ParseSpec decodes a Spec from its JSON wire form (the same shape
// CanonicalJSON emits), rejecting unknown fields so a typo in a submitted
// document fails loudly instead of silently running the defaults.
func ParseSpec(data []byte) (Spec, error) {
	// The optional "v" field carries the canonical schema version, so a
	// stored canonical document is itself a valid submission.
	var doc struct {
		V int `json:"v,omitempty"`
		Spec
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, fmt.Errorf("experiment: bad spec document: %w", err)
	}
	if doc.V != 0 && doc.V != SpecSchemaVersion {
		return Spec{}, fmt.Errorf("experiment: spec schema version %d not supported (this build speaks v%d)", doc.V, SpecSchemaVersion)
	}
	return doc.Spec, nil
}

// Canonical workload defaults: the value each zero Spec knob resolves to
// at run time (see Scenario and the workload constants). CanonicalJSON
// normalizes a knob to its effective value and elides it when it equals
// the default, so Spec{} and Spec{SyncEvery: 10} — which run identically —
// also hash identically. Run and buildStrategy read the same constants,
// which is what makes equal hashes mean equal simulations.
const (
	defaultSyncEvery      = syncEvery
	defaultCharesPerCore  = charesPerCore
	defaultStencilBlock   = stencilBlock
	defaultBGIters        = bgIters
	defaultEpsilonFrac    = 0.02
	defaultDiffRounds     = lb.DefaultDiffusionRounds
	defaultDiffTol        = lb.DefaultDiffusionTol
	defaultMaxVirtualTime = 10000
)

// canonFloat is a float64 that marshals in its shortest round-trip 'g'
// form (5e-05, 1.25e+09), the number shape canonical documents have used
// since SpecSchemaVersion 1. encoding/json's own float form (0.00005,
// 1250000000) would move every hash with such a value. Non-finite values,
// which Validate rejects, marshal as strings so the encoding stays total.
type canonFloat float64

func (f canonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return json.Marshal(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func canonFloats(vs []float64) []canonFloat {
	if len(vs) == 0 {
		return nil
	}
	out := make([]canonFloat, len(vs))
	for i, v := range vs {
		out[i] = canonFloat(v)
	}
	return out
}

// canonSpec is the canonical wire form of a Spec. Field order is encoding
// order, and a zero field is a default: normalize zeroes every knob that
// equals its effective default, so the omitempty tags elide it.
type canonSpec struct {
	V               int            `json:"v"`
	App             AppKind        `json:"app"`
	Cores           []int          `json:"cores"`
	Strategies      []StrategyKind `json:"strategies,omitempty"`
	Seeds           []int64        `json:"seeds,omitempty"`
	Scale           canonFloat     `json:"scale,omitempty"`
	BG              BGKind         `json:"bg,omitempty"`
	BGWeight        canonFloat     `json:"bg_weight,omitempty"`
	BGIters         int            `json:"bg_iters,omitempty"`
	SyncEvery       int            `json:"sync_every,omitempty"`
	CharesPerCore   int            `json:"chares_per_core,omitempty"`
	StencilBlock    int            `json:"stencil_block,omitempty"`
	EpsilonFrac     canonFloat     `json:"epsilon_frac,omitempty"`
	DiffRounds      int            `json:"diff_rounds,omitempty"`
	DiffTol         canonFloat     `json:"diff_tol,omitempty"`
	Hierarchical    bool           `json:"hierarchical,omitempty"`
	Faults          []canonFault   `json:"faults,omitempty"`
	MaxVirtualTime  canonFloat     `json:"max_virtual_time,omitempty"`
	Net             *canonNet      `json:"net,omitempty"`
	EpsFracs        []canonFloat   `json:"eps_fracs,omitempty"`
	Periods         []int          `json:"periods,omitempty"`
	DropPcts        []canonFloat   `json:"drop_pcts,omitempty"`
	StraggleFactors []canonFloat   `json:"straggle_factors,omitempty"`
}

type canonFault struct {
	PE              int        `json:"pe"`
	At              canonFloat `json:"at"`
	Warning         canonFloat `json:"warning,omitempty"`
	Restore         canonFloat `json:"restore,omitempty"`
	ReplacementCore int        `json:"replacement_core,omitempty"`
}

// canonNet is a resolved network config with every field that equals the
// resolved zero config's zeroed.
type canonNet struct {
	IntraNodeLatency   canonFloat  `json:"intra_node_latency,omitempty"`
	IntraNodeBandwidth canonFloat  `json:"intra_node_bandwidth,omitempty"`
	InterNodeLatency   canonFloat  `json:"inter_node_latency,omitempty"`
	InterNodeBandwidth canonFloat  `json:"inter_node_bandwidth,omitempty"`
	Links              []canonLink `json:"links,omitempty"`
	StragglerNodes     []int       `json:"straggler_nodes,omitempty"`
	StragglerFactor    canonFloat  `json:"straggler_factor,omitempty"`
	DropPct            canonFloat  `json:"drop_pct,omitempty"`
	Seed               int64       `json:"seed,omitempty"`
	RetransmitTimeout  canonFloat  `json:"retransmit_timeout,omitempty"`
	MaxAttempts        int         `json:"max_attempts,omitempty"`
}

type canonLink struct {
	Src       int        `json:"src"`
	Dst       int        `json:"dst"`
	Latency   canonFloat `json:"latency,omitempty"`
	Bandwidth canonFloat `json:"bandwidth,omitempty"`
}

// CanonicalJSON is the versioned, deterministic encoding of the Spec —
// the input of Hash and the cache key of the scenario-evaluation service.
// It is normalize followed by json.Marshal of the wire form. Rules (see
// DESIGN.md §13):
//
//   - Fields appear in a fixed order, starting with the schema version
//     ("v": SpecSchemaVersion).
//   - Every knob is normalized to its effective runtime value (Scale 0 →
//     1, SyncEvery 0 → 10, a zero Net → the resolved defaults, …) and
//     elided when it equals the default, so spellings that run
//     identically encode identically.
//   - The revocation schedule is sorted by (At, PE) and straggler node
//     sets are sorted and deduplicated — order-insensitive inputs are
//     order-insensitive in the hash.
//   - Shards is excluded: a run is byte-identical at every shard count
//     (make determinism), so the same scenario at -shards 1 and
//     -shards 8 shares one cache entry.
func (sp Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(sp.normalize())
	if err != nil {
		// Every wire field is a plain value or a total marshaller.
		panic(fmt.Sprintf("experiment: canonical encoding failed: %v", err))
	}
	return b
}

// Hash is the canonical scenario hash: the hex SHA-256 of CanonicalJSON.
// Two Specs share a hash exactly when they describe the same simulation,
// regardless of field spelling, zero-value elision or shard count — the
// content-address the service's result cache is keyed by.
func (sp Spec) Hash() string {
	sum := sha256.Sum256(sp.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// normalize maps the Spec onto its canonical wire form: each knob resolved
// to its effective value and zeroed when that is the default, the fault
// schedule sorted, the network resolved with its default fields zeroed,
// and Shards dropped.
func (sp Spec) normalize() canonSpec {
	c := canonSpec{
		V: SpecSchemaVersion, App: sp.App, Cores: sp.Cores,
		BG:              sp.BG,
		BGIters:         nonDefault(normInt(sp.BGIters, defaultBGIters), defaultBGIters),
		SyncEvery:       nonDefault(normInt(sp.SyncEvery, defaultSyncEvery), defaultSyncEvery),
		CharesPerCore:   nonDefault(normInt(sp.CharesPerCore, defaultCharesPerCore), defaultCharesPerCore),
		StencilBlock:    nonDefault(normInt(sp.StencilBlock, defaultStencilBlock), defaultStencilBlock),
		EpsilonFrac:     canonFloat(nonDefault(normFloat(sp.EpsilonFrac, defaultEpsilonFrac), defaultEpsilonFrac)),
		DiffRounds:      nonDefault(normInt(sp.DiffRounds, defaultDiffRounds), defaultDiffRounds),
		DiffTol:         canonFloat(nonDefault(normFloat(sp.DiffTol, defaultDiffTol), defaultDiffTol)),
		Hierarchical:    sp.Hierarchical,
		MaxVirtualTime:  canonFloat(nonDefault(normFloat(float64(sp.MaxVirtualTime), defaultMaxVirtualTime), defaultMaxVirtualTime)),
		Net:             normNet(sp.Net),
		EpsFracs:        canonFloats(sp.EpsFracs),
		Periods:         sp.Periods,
		DropPcts:        canonFloats(sp.DropPcts),
		StraggleFactors: canonFloats(sp.StraggleFactors),
	}
	if c.Cores == nil {
		c.Cores = []int{}
	}
	if len(sp.Strategies) > 1 || len(sp.Strategies) == 1 && sp.Strategies[0] != NoLB {
		c.Strategies = sp.Strategies
	}
	if len(sp.Seeds) > 1 || len(sp.Seeds) == 1 && sp.Seeds[0] != 1 {
		c.Seeds = sp.Seeds
	}
	c.Scale = canonFloat(nonDefault(sp.scale(), 1))
	if w := sp.BGWeight; w > 0 {
		c.BGWeight = canonFloat(nonDefault(w, 1))
	}
	for _, r := range sortedSchedule(sp.Faults) {
		c.Faults = append(c.Faults, canonFault{
			PE: r.PE, At: canonFloat(r.At), Warning: canonFloat(r.Warning),
			Restore: canonFloat(r.Restore), ReplacementCore: r.ReplacementCore,
		})
	}
	return c
}

func normInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func normFloat(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// nonDefault zeroes a normalized value equal to its default, marking it
// for elision.
func nonDefault[T int | float64](v, def T) T {
	if v == def {
		return 0
	}
	return v
}

// sortedSchedule orders revocations by (At, PE) without mutating the
// input: the schedule is a set of timed events, so its declaration order
// must not leak into the hash.
func sortedSchedule(s elastic.Schedule) elastic.Schedule {
	out := append(elastic.Schedule(nil), s...)
	slices.SortStableFunc(out, func(a, b elastic.Revocation) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		return a.PE - b.PE
	})
	return out
}

// normNet resolves the config and zeroes every field equal to the
// resolved zero config's; nil, elided from the encoding, is the uniform
// reliable default. Normalizing the resolved form — not the sparse input
// — keeps the documented invariant that a zero Config and an explicit
// DefaultConfig() are the same scenario. Link order is semantic (last
// match wins) and is kept; the straggler node set is sorted and
// deduplicated, and dropped with its factor when it slows nothing.
func normNet(cfg xnet.Config) *canonNet {
	r := cfg.Resolved()
	d := xnet.Config{}.Resolved()
	n := canonNet{
		IntraNodeLatency:   canonFloat(nonDefault(r.IntraNodeLatency, d.IntraNodeLatency)),
		IntraNodeBandwidth: canonFloat(nonDefault(r.IntraNodeBandwidth, d.IntraNodeBandwidth)),
		InterNodeLatency:   canonFloat(nonDefault(r.InterNodeLatency, d.InterNodeLatency)),
		InterNodeBandwidth: canonFloat(nonDefault(r.InterNodeBandwidth, d.InterNodeBandwidth)),
		DropPct:            canonFloat(r.DropPct),
		Seed:               r.Seed,
		RetransmitTimeout:  canonFloat(nonDefault(r.RetransmitTimeout, d.RetransmitTimeout)),
		MaxAttempts:        nonDefault(r.MaxAttempts, d.MaxAttempts),
	}
	for _, l := range r.Links {
		n.Links = append(n.Links, canonLink{Src: l.Src, Dst: l.Dst,
			Latency: canonFloat(l.Latency), Bandwidth: canonFloat(l.Bandwidth)})
	}
	if len(r.StragglerNodes) > 0 && r.StragglerFactor != 1 {
		nodes := append([]int(nil), r.StragglerNodes...)
		slices.Sort(nodes)
		n.StragglerNodes = slices.Compact(nodes)
		n.StragglerFactor = canonFloat(r.StragglerFactor)
	}
	if reflect.ValueOf(n).IsZero() {
		return nil
	}
	return &n
}
