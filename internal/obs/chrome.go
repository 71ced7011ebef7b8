package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Chrome trace-event PIDs: the sim recorder (trace.Recorder.ChromeEvents)
// emits its per-core rows under pid 0 in virtual time; job spans live
// under pid 1 in host time. The two clocks share one timeline only
// nominally, but chrome://tracing renders them as separate process
// groups, which is exactly the reading the waterfall needs.
const (
	simPID = 0
	jobPID = 1
)

// ChromeEvent is one entry of the Chrome trace-event format ("X"
// complete, "i" instant, "M" metadata, "s"/"f" flow start/finish),
// loadable in chrome://tracing and Perfetto: the one event type of both
// the sim timeline and the job spans. Field order and the omitempty
// tags are part of trace.json's content address: cat and dur are always
// written, args, id, bp and s only when set.
type ChromeEvent struct {
	Name     string         `json:"name"`
	Category string         `json:"cat"`
	Phase    string         `json:"ph"`
	TS       float64        `json:"ts"`  // microseconds
	Dur      float64        `json:"dur"` // microseconds
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
	// ID ties a flow's "s" event to its "f" event.
	ID int `json:"id,omitempty"`
	// BP "e" binds the flow arrival to the enclosing slice.
	BP string `json:"bp,omitempty"`
	// Scope of an instant event ("t" = thread).
	Scope string `json:"s,omitempty"`
}

// WriteChrome encodes events as one Chrome trace-event JSON array
// followed by a newline. It is the only Chrome encoder: the sim
// timeline's trace.json and the job's trace_spans.json both go through
// it.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(events)
}

// ChromeJSON renders the trace as a Chrome trace-event JSON array —
// loadable in chrome://tracing or ui.perfetto.dev — followed by the sim
// recorder's events (its per-core timeline with migration flow arrows)
// under their own process row when sim is non-empty. Nil trace with nil
// sim renders an empty array.
func (t *Trace) ChromeJSON(sim []ChromeEvent) ([]byte, error) {
	events := []ChromeEvent{}
	if t != nil {
		events = append(events, ChromeEvent{Name: "process_name", Phase: "M", PID: jobPID,
			Args: map[string]any{"name": "job " + t.ID() + " (host time)"}})
		for _, tn := range t.tidNameList() {
			events = append(events, ChromeEvent{Name: "thread_name", Phase: "M", PID: jobPID, TID: tn.tid,
				Args: map[string]any{"name": tn.name}})
		}
		for _, sp := range t.Spans() {
			ev := ChromeEvent{
				Name: sp.Name, Category: sp.Cat, Phase: "X",
				TS:  float64(sp.Start) / float64(time.Microsecond),
				Dur: float64(sp.Dur) / float64(time.Microsecond),
				PID: jobPID, TID: sp.TID, Args: sp.Args,
			}
			if sp.Dur == 0 {
				ev.Phase, ev.Scope = "i", "t"
			}
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args["span_id"] = sp.ID
			events = append(events, ev)
		}
		if d := t.Dropped(); d > 0 {
			events = append(events, ChromeEvent{Name: "spans_dropped", Category: CatJob, Phase: "i",
				TS: float64(t.since()) / float64(time.Microsecond), PID: jobPID, Scope: "t",
				Args: map[string]any{"dropped": d}})
		}
	}
	if len(sim) > 0 {
		events = append(events, ChromeEvent{Name: "process_name", Phase: "M", PID: simPID,
			Args: map[string]any{"name": "sim cores (virtual time)"}})
		events = append(events, sim...)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tidName pairs one named thread row for metadata export.
type tidName struct {
	tid  int
	name string
}

// NameTID labels a thread row for the Chrome export ("thread_name"
// metadata) — the runner names each scenario's row after its axes.
func (t *Trace) NameTID(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.tidNames == nil {
		t.tidNames = make(map[int]string)
	}
	t.tidNames[tid] = name
	t.mu.Unlock()
}

func (t *Trace) tidNameList() []tidName {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]tidName, 0, len(t.tidNames))
	for tid, name := range t.tidNames {
		out = append(out, tidName{tid: tid, name: name})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].tid < out[b].tid })
	return out
}
