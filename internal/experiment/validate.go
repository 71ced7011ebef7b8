package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"cloudlb/internal/xnet"
)

// FieldError pins a validation failure to the Spec field that caused it,
// in the wire spelling clients submitted ("cores[1]", "net.drop_pct").
// The service returns these as the HTTP 400 body; the CLI prints them one
// per line.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError is the collected result of Spec.Validate: every field
// failure at once, so a client fixes a bad document in one round trip.
type ValidationError struct {
	Fields []FieldError `json:"errors"`
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "experiment: invalid spec: " + strings.Join(msgs, "; ")
}

// Validate checks every Spec field against the preconditions Run and the
// Spec methods enforce, returning nil or a *ValidationError listing each
// offending field. It is the single validation gate: the service's HTTP
// 400 path and the CLI flag parsers both call it, so a bad knob fails
// with the same message everywhere instead of panicking mid-simulation.
//
// Method-specific shape requirements (one core count for
// CompareStrategies, baseline-first sweep axes for NetworkInterference,
// …) stay with their methods: Validate accepts any Spec some method can
// run.
func (sp Spec) Validate() error {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if sp.App.String() == "unknown" {
		add("app", "unknown application kind %d", int(sp.App))
	}
	if len(sp.Cores) == 0 {
		add("cores", "needs at least one core count")
	}
	for i, c := range sp.Cores {
		if c <= 0 || c%4 != 0 {
			add(fmt.Sprintf("cores[%d]", i), "must be a positive multiple of 4, got %d", c)
		}
	}
	for i, k := range sp.Strategies {
		if k.String() == "unknown" {
			add(fmt.Sprintf("strategies[%d]", i), "unknown strategy kind %d", int(k))
		}
	}
	if sp.BG.String() == "unknown" {
		add("bg", "unknown background kind %d", int(sp.BG))
	}
	if sp.App == AppNone && sp.App.String() != "unknown" && sp.BG != BGWave2D {
		add("app", `"none" requires bg "wave2d" (the background job is the thing being measured)`)
	}
	if !finite(sp.Scale) || sp.Scale < 0 {
		add("scale", "must be finite and >= 0 (0 = default 1), got %v", sp.Scale)
	}
	nonNegative := []struct {
		field string
		v     float64
	}{
		{"bg_weight", sp.BGWeight},
		{"bg_iters", float64(sp.BGIters)},
		{"sync_every", float64(sp.SyncEvery)},
		{"chares_per_core", float64(sp.CharesPerCore)},
		{"stencil_block", float64(sp.StencilBlock)},
		{"epsilon_frac", sp.EpsilonFrac},
		{"diff_rounds", float64(sp.DiffRounds)},
		{"diff_tol", sp.DiffTol},
		{"max_virtual_time", float64(sp.MaxVirtualTime)},
	}
	for _, n := range nonNegative {
		if !finite(n.v) || n.v < 0 {
			add(n.field, "must be finite and >= 0 (0 = default), got %v", n.v)
		}
	}
	for i, r := range sp.Faults {
		if !finite(float64(r.At)) || !finite(float64(r.Warning)) || !finite(float64(r.Restore)) {
			add(fmt.Sprintf("faults[%d]", i), "times must be finite, got at %v, warning %v, restore %v",
				r.At, r.Warning, r.Restore)
		}
	}
	if len(sp.Faults) > 0 {
		if sp.App == AppNone {
			add("faults", "require an application (they revoke its cores)")
		}
		// The schedule must be valid on every allocation it will run on;
		// the smallest core count is the binding constraint for PE range.
		for _, c := range sp.Cores {
			if c <= 0 {
				continue
			}
			if err := sp.Faults.Validate(c); err != nil {
				add("faults", "invalid for %d cores: %v", c, err)
				break
			}
		}
	}
	// The runtime's tree gather has no elasticity, and DiffusionLB plans
	// by neighbor exchange in place of any gather.
	if sp.Hierarchical {
		if len(sp.Faults) > 0 {
			add("hierarchical", "cannot run with faults (the tree gather does not support revocations)")
		}
		if slices.Contains(sp.Strategies, Diffusion) {
			add("hierarchical", "cannot run with DiffusionLB (it plans by neighbor exchange, not a gather)")
		}
	}
	// Node indices must exist on the smallest allocation's cluster.
	smallest, nodes := 0, 0
	for _, c := range sp.Cores {
		if c > 0 && c%4 == 0 && (smallest == 0 || c < smallest) {
			smallest, nodes = c, clusterNodes(c)
		}
	}
	netErrs := validateNet(sp.Net, nodes)
	errs = append(errs, netErrs...)
	for i, e := range sp.EpsFracs {
		if !finite(e) || e <= 0 {
			add(fmt.Sprintf("eps_fracs[%d]", i), "must be finite and > 0, got %v", e)
		}
	}
	for i, p := range sp.Periods {
		if p <= 0 {
			add(fmt.Sprintf("periods[%d]", i), "must be > 0, got %d", p)
		}
	}
	for i, d := range sp.DropPcts {
		if !(d >= 0 && d < 100) {
			add(fmt.Sprintf("drop_pcts[%d]", i), "must be in [0,100), got %v", d)
		}
	}
	for i, f := range sp.StraggleFactors {
		if !finite(f) || f <= 0 {
			add(fmt.Sprintf("straggle_factors[%d]", i), "must be finite and > 0, got %v", f)
			continue
		}
		// The net method overlays each factor on the Spec's network
		// (netCell), where a factor fine on its own can still break a
		// link. A cell's drop percentage derives nothing, so one cell per
		// factor covers the sweep.
		if len(netErrs) == 0 {
			if err := netCell(sp.Net.Resolved(), smallest, 0, f).CheckDerived(); err != nil {
				add(fmt.Sprintf("straggle_factors[%d]", i), "%v", err)
			}
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return &ValidationError{Fields: errs}
}

// finite reports whether v is neither NaN nor ±Inf. A float flag
// accepts "NaN" and "Inf", and NaN fails every comparison, so a range
// check written as v < 0 lets it through.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateNet mirrors xnet's own panic-on-Build checks as field errors,
// so a bad network config is a 400 at submit time instead of a crashed
// job at run time. Node indices are checked against a cluster of nodes
// nodes (0 skips the upper bound).
func validateNet(cfg xnet.Config, nodes int) []FieldError {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: "net." + field, Msg: fmt.Sprintf(format, args...)})
	}
	nonNegative := []struct {
		field string
		v     float64
	}{
		{"intra_node_latency", cfg.IntraNodeLatency},
		{"intra_node_bandwidth", cfg.IntraNodeBandwidth},
		{"inter_node_latency", cfg.InterNodeLatency},
		{"inter_node_bandwidth", cfg.InterNodeBandwidth},
		{"straggler_factor", cfg.StragglerFactor},
		{"retransmit_timeout", cfg.RetransmitTimeout},
	}
	for _, n := range nonNegative {
		if !finite(n.v) || n.v < 0 {
			add(n.field, "must be finite and >= 0 (0 = default), got %v", n.v)
		}
	}
	outside := func(n int) bool { return n < 0 || nodes > 0 && n >= nodes }
	span := func() string {
		if nodes > 0 {
			return fmt.Sprintf("in [0,%d), the smallest allocation's cluster", nodes)
		}
		return ">= 0"
	}
	for i, l := range cfg.Links {
		if outside(l.Src) || outside(l.Dst) {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.links[%d]", i),
				Msg:   fmt.Sprintf("node indices must be %s, got (%d,%d)", span(), l.Src, l.Dst),
			})
		} else if l.Src == l.Dst {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.links[%d]", i),
				Msg:   fmt.Sprintf("src and dst must differ (a link joins two nodes), got (%d,%d)", l.Src, l.Dst),
			})
		}
		if !finite(l.Latency) || !finite(l.Bandwidth) || l.Latency < 0 || l.Bandwidth < 0 {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.links[%d]", i),
				Msg:   fmt.Sprintf("latency and bandwidth must be finite and >= 0, got %v and %v", l.Latency, l.Bandwidth),
			})
		}
	}
	for i, n := range cfg.StragglerNodes {
		if outside(n) {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.straggler_nodes[%d]", i),
				Msg:   fmt.Sprintf("must be a node index %s, got %d", span(), n),
			})
		}
	}
	if !(cfg.DropPct >= 0 && cfg.DropPct < 100) {
		add("drop_pct", "must be in [0,100), got %v", cfg.DropPct)
	}
	if cfg.MaxAttempts < 0 {
		add("max_attempts", "must be >= 0 (0 = default), got %d", cfg.MaxAttempts)
	}
	// Fields valid one by one can still derive an unusable link or
	// retransmit timeout once resolved (xnet.New panics on those).
	if len(errs) == 0 {
		if err := cfg.Resolved().CheckDerived(); err != nil {
			errs = append(errs, FieldError{Field: "net", Msg: err.Error()})
		}
	}
	return errs
}
