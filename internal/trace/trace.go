// Package trace records per-core timelines, in the spirit of the Charm++
// Projections tool the paper uses for Figures 1 and 3.
//
// The runtime records a segment for every entry-method execution, the
// interference generators record segments for background bursts, and the
// load balancer records its synchronization phases. Renderers turn the
// segments into ASCII timelines (for terminals and tests), SVG (for
// figure output) or Chrome trace events (for Perfetto).
package trace

import (
	"cmp"
	"slices"
	"sync"

	"cloudlb/internal/sim"
)

// Kind classifies a timeline segment.
type Kind int

// Segment kinds.
const (
	// KindTask is an application entry-method execution.
	KindTask Kind = iota
	// KindBackground is CPU demand from an interfering job.
	KindBackground
	// KindLB is time a PE spent inside a load balancing step.
	KindLB
	// KindMarker is an instantaneous annotation (e.g. "BG job starts").
	KindMarker
	// KindOffline is a span during which the core was revoked and out of
	// service. Keep this last: the numeric values above are load-bearing for
	// committed artifacts.
	KindOffline
)

func (k Kind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindBackground:
		return "background"
	case KindLB:
		return "lb"
	case KindMarker:
		return "marker"
	case KindOffline:
		return "offline"
	}
	return "unknown"
}

// Segment is one interval on one core's timeline.
type Segment struct {
	Core  int
	Start sim.Time
	End   sim.Time
	Kind  Kind
	// Label identifies the activity: chare ID for tasks, job name for
	// background load.
	Label string
}

// chunkLen is the capacity of one segment chunk. Chunked storage keeps
// appends O(1) without the doubling-and-copying a single flat slice pays:
// a long traced run re-copies every segment ~log(n) times, and the copies
// momentarily hold 1.5x the timeline in memory.
const chunkLen = 4096

// Recorder accumulates segments. A nil *Recorder is valid and records
// nothing, so instrumented code never needs nil checks.
type Recorder struct {
	chunks [][]Segment
	count  int

	// concurrent guards Add with mu, for runs driven by the sharded
	// scheduler where several shard workers record at once. Readers
	// (Segments etc.) still require quiescence — they run after the
	// simulation. The per-core segment order stays deterministic: each
	// core's segments are added by exactly one execution context at a time,
	// and Segments' stable sort keys on (core, start), preserving that
	// per-core insertion order however the cores' chunks interleave.
	concurrent bool
	mu         sync.Mutex
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetConcurrent makes Add safe for concurrent callers. Call before
// recording starts; single-threaded runs skip the lock entirely.
func (r *Recorder) SetConcurrent(on bool) {
	if r == nil {
		return
	}
	r.concurrent = on
}

// Add records a segment. Calls on a nil recorder are dropped.
func (r *Recorder) Add(s Segment) {
	if r == nil {
		return
	}
	if r.concurrent {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if s.End < s.Start {
		s.Start, s.End = s.End, s.Start
	}
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1]) == chunkLen {
		r.chunks = append(r.chunks, make([]Segment, 0, chunkLen))
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], s)
	r.count++
}

// Len reports how many segments have been recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.count
}

// Mark records an instantaneous annotation on a core's timeline.
func (r *Recorder) Mark(core int, at sim.Time, label string) {
	r.Add(Segment{Core: core, Start: at, End: at, Kind: KindMarker, Label: label})
}

// Segments returns all recorded segments sorted by (core, start).
func (r *Recorder) Segments() []Segment {
	if r == nil {
		return nil
	}
	out := make([]Segment, 0, r.count)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	slices.SortStableFunc(out, func(a, b Segment) int {
		if a.Core != b.Core {
			return a.Core - b.Core
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return out
}

// CoreSegments returns the core's segments sorted by start time.
func (r *Recorder) CoreSegments(coreID int) []Segment {
	if r == nil {
		return nil
	}
	var out []Segment
	for _, c := range r.chunks {
		for _, s := range c {
			if s.Core == coreID {
				out = append(out, s)
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Segment) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// BusyFraction computes the fraction of [from, to] the core spent in
// segments of the given kind.
func (r *Recorder) BusyFraction(coreID int, kind Kind, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var busy sim.Time
	for _, s := range r.CoreSegments(coreID) {
		if s.Kind != kind || s.End <= from || s.Start >= to {
			continue
		}
		a, b := s.Start, s.End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		busy += b - a
	}
	return float64(busy) / float64(to-from)
}
