package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// bucketJSON is Bucket's wire form: the bound rides as a string because
// the final bucket's +Inf has no JSON number representation (encoding a
// raw +Inf float makes Marshal fail, which used to abort every histogram
// JSON export).
type bucketJSON struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{LE: promFloat(b.UpperBound), Count: b.Count})
}

func (b *Bucket) UnmarshalJSON(data []byte) error {
	var aux bucketJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	switch aux.LE {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(aux.LE, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = aux.Count
	return nil
}

// Series is one metric series frozen at Gather time.
type Series struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`

	// Value holds counter/gauge readings (float counters included).
	Value float64 `json:"value,omitempty"`
	// Histogram readings. Buckets are cumulative, ending with +Inf.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	// P50/P95/P99 are quantiles estimated from the bucket boundaries
	// (see EstimateQuantile); present for histograms only.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// HistogramSnapshot is one histogram frozen outside a registry snapshot:
// cumulative buckets plus the derived totals and estimated quantiles.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
}

// Snapshot freezes the histogram's current state. Safe on a nil receiver
// (zero snapshot) and safe to call concurrently with Observe: the bucket
// loads are atomic, so a snapshot racing an observation is off by at
// most that observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.buckets))}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	s.Count = h.Count()
	s.Sum = h.Sum()
	s.P50 = EstimateQuantile(s.Buckets, 0.50)
	s.P95 = EstimateQuantile(s.Buckets, 0.95)
	s.P99 = EstimateQuantile(s.Buckets, 0.99)
	return s
}

// EstimateQuantile estimates the q-quantile (0 < q < 1) of a histogram
// from its cumulative buckets by linear interpolation inside the bucket
// holding the target rank — the same model as Prometheus's
// histogram_quantile. Observations in the +Inf bucket clamp to the
// highest finite bound (the histogram cannot see past it); an empty
// histogram reports 0.
func EstimateQuantile(buckets []Bucket, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCount uint64
	var prevBound float64
	for _, b := range buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return prevBound
			}
			in := float64(b.Count - prevCount)
			if in <= 0 {
				return b.UpperBound
			}
			return prevBound + (b.UpperBound-prevBound)*(rank-float64(prevCount))/in
		}
		prevCount = b.Count
		if !math.IsInf(b.UpperBound, 1) {
			prevBound = b.UpperBound
		}
	}
	return prevBound
}

// Snapshot is a point-in-time copy of every series in a registry,
// sorted by name then label values — stable output for diffing and
// golden tests.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Gather runs the registered collectors, then freezes every series into
// a Snapshot. Safe to call on a nil registry (empty snapshot). Gather
// holds the registry lock only to copy the series list; reads of the
// atomics happen outside it.
func (r *Registry) Gather() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	if r.parent != nil {
		return r.parent.Gather()
	}
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	ms := append([]*metric{}, r.ordered...)
	r.mu.Unlock()

	snap := Snapshot{Series: make([]Series, 0, len(ms))}
	for _, m := range ms {
		s := Series{
			Name:   m.name,
			Help:   m.help,
			Kind:   m.kind.String(),
			Labels: m.labels,
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindFloatCounter:
			s.Value = m.fcounter.Value()
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindHistogram:
			h := m.hist
			s.Buckets = make([]Bucket, len(h.bounds)+1)
			var cum uint64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
			}
			s.Sum = h.Sum()
			s.Count = h.Count()
			s.P50 = EstimateQuantile(s.Buckets, 0.50)
			s.P95 = EstimateQuantile(s.Buckets, 0.95)
			s.P99 = EstimateQuantile(s.Buckets, 0.99)
		}
		snap.Series = append(snap.Series, s)
	}
	sort.SliceStable(snap.Series, func(i, j int) bool {
		a, b := snap.Series[i], snap.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelsLess(a.Labels, b.Labels)
	})
	return snap
}

func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Name != b[i].Name {
			return a[i].Name < b[i].Name
		}
		// Numeric label values (pe/core/step indices) sort numerically so
		// pe=10 follows pe=9 in exports.
		av, aerr := strconv.Atoi(a[i].Value)
		bv, berr := strconv.Atoi(b[i].Value)
		if aerr == nil && berr == nil {
			if av != bv {
				return av < bv
			}
			continue
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// WriteJSON gathers and writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Gather()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WritePrometheus gathers and writes the snapshot in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per metric
// name, then every series of that name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Gather()
	var lastName string
	for _, s := range snap.Series {
		if s.Name != lastName {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(s.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			lastName = s.Name
		}
		if err := writePromSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writePromSeries(w io.Writer, s Series) error {
	if s.Kind != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, promLabels(s.Labels, "", ""), promFloat(s.Value))
		return err
	}
	for _, b := range s.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, promLabels(s.Labels, "le", promFloat(b.UpperBound)), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, promLabels(s.Labels, "", ""), promFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, promLabels(s.Labels, "", ""), s.Count)
	return err
}

// promLabels renders {a="x",b="y"} with an optional extra label (the
// histogram "le" bound). Empty label sets render as nothing.
func promLabels(labels []Label, extra, extraVal string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The 0.0.4 text format escapes exactly three characters in label
// values (backslash, newline, double quote) and two in HELP text
// (backslash, newline — quotes pass through unescaped there). Each
// replacer walks the string once, so a literal `\n` two-character
// sequence cannot be double-escaped by a later pass.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
