package trace

import (
	"cmp"
	"slices"

	"cloudlb/internal/obs"
)

// ChromeEvents renders the recorded segments as Chrome trace events
// (encode them with obs.WriteChrome): each core becomes a thread row,
// task/background/LB segments become complete events, markers become
// instant events, and each chare migration becomes a flow arrow from the
// chare's last segment on the old core to its first segment on the new
// one. The output loads directly into chrome://tracing or
// ui.perfetto.dev. A non-nil recorder yields a non-nil slice.
func (r *Recorder) ChromeEvents() []obs.ChromeEvent {
	if r == nil {
		return nil
	}
	segs := r.Segments()
	events := make([]obs.ChromeEvent, 0, len(segs))
	for _, s := range segs {
		if s.Kind == KindMarker {
			events = append(events, obs.ChromeEvent{
				Name: s.Label, Category: "marker", Phase: "i",
				TS: float64(s.Start) * 1e6, PID: 0, TID: s.Core,
			})
			continue
		}
		events = append(events, obs.ChromeEvent{
			Name:     s.Label,
			Category: s.Kind.String(),
			Phase:    "X",
			TS:       float64(s.Start) * 1e6,
			Dur:      float64(s.End-s.Start) * 1e6,
			PID:      0,
			TID:      s.Core,
			Args:     map[string]any{"kind": s.Kind.String()},
		})
	}
	return append(events, flowEvents(segs)...)
}

// flowEvents renders chare migrations as flow-event pairs: for every pair
// of chronologically consecutive task segments of the same chare on
// different cores, a "s" (flow start) leaves the end of the old core's
// segment and a "f" (flow finish, bp:"e" = bind to enclosing slice)
// lands at the start of the new core's segment, sharing an id. Labels
// are processed in sorted order and ids count up from 1, so output is
// deterministic; a trace with no migrations yields no events at all.
func flowEvents(segs []Segment) []obs.ChromeEvent {
	byLabel := make(map[string][]Segment)
	var labels []string
	for _, s := range segs {
		if s.Kind != KindTask {
			continue
		}
		if _, ok := byLabel[s.Label]; !ok {
			labels = append(labels, s.Label)
		}
		byLabel[s.Label] = append(byLabel[s.Label], s)
	}
	slices.Sort(labels)
	var out []obs.ChromeEvent
	id := 0
	for _, label := range labels {
		ss := byLabel[label]
		slices.SortStableFunc(ss, func(a, b Segment) int { return cmp.Compare(a.Start, b.Start) })
		for i := 1; i < len(ss); i++ {
			a, b := ss[i-1], ss[i]
			if a.Core == b.Core {
				continue
			}
			id++
			out = append(out,
				obs.ChromeEvent{
					Name: label, Category: "migration", Phase: "s",
					TS: float64(a.End) * 1e6, PID: 0, TID: a.Core, ID: id,
				},
				obs.ChromeEvent{
					Name: label, Category: "migration", Phase: "f", BP: "e",
					TS: float64(b.Start) * 1e6, PID: 0, TID: b.Core, ID: id,
				})
		}
	}
	return out
}
