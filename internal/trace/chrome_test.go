package trace

import (
	"strings"
	"testing"

	"cloudlb/internal/obs"
)

// TestChromeTraceFlowEvents checks that a chare migration produces a
// matched s/f flow pair linking its segments across cores, and that
// same-core consecutive segments produce none.
func TestChromeTraceFlowEvents(t *testing.T) {
	r := NewRecorder()
	// w[1] runs on core 0, migrates, resumes on core 2: one flow.
	r.Add(Segment{Core: 0, Start: 0, End: 1, Kind: KindTask, Label: "w[1]"})
	r.Add(Segment{Core: 2, Start: 2, End: 3, Kind: KindTask, Label: "w[1]"})
	// w[0] stays put: no flow.
	r.Add(Segment{Core: 1, Start: 0, End: 1, Kind: KindTask, Label: "w[0]"})
	r.Add(Segment{Core: 1, Start: 2, End: 3, Kind: KindTask, Label: "w[0]"})
	// Background segments never flow, even across cores.
	r.Add(Segment{Core: 0, Start: 4, End: 5, Kind: KindBackground, Label: "hog"})
	r.Add(Segment{Core: 1, Start: 6, End: 7, Kind: KindBackground, Label: "hog"})

	var flows []obs.ChromeEvent
	for _, e := range r.ChromeEvents() {
		if e.Category == "migration" {
			flows = append(flows, e)
		}
	}
	if len(flows) != 2 {
		t.Fatalf("%d flow events, want 2 (one s/f pair): %+v", len(flows), flows)
	}
	s, f := flows[0], flows[1]
	if s.Phase != "s" || f.Phase != "f" {
		t.Fatalf("phases wrong: %v %v", s.Phase, f.Phase)
	}
	if s.Name != "w[1]" || f.Name != "w[1]" {
		t.Fatalf("flow names wrong: %v %v", s.Name, f.Name)
	}
	if s.ID != f.ID || s.ID == 0 {
		t.Fatalf("flow ids don't match: %v %v", s.ID, f.ID)
	}
	if f.BP != "e" {
		t.Fatalf("flow finish missing bp=e: %+v", f)
	}
	// Departure from the old core's segment end, arrival at the new one's
	// start.
	if s.TID != 0 || s.TS != 1e6 {
		t.Fatalf("flow start wrong: %+v", s)
	}
	if f.TID != 2 || f.TS != 2e6 {
		t.Fatalf("flow finish wrong: %+v", f)
	}
}

// TestChromeTraceNoMigrationByteStable pins the no-migration output
// byte for byte: events sorted by (core, start), task and background
// segments as complete events, markers as instant events, and no
// flow-only fields, so existing traces regenerate byte-identically.
func TestChromeTraceNoMigrationByteStable(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 1, Start: 0.5, End: 1.5, Kind: KindTask, Label: "w[3]"})
	r.Add(Segment{Core: 0, Start: 2, End: 2.5, Kind: KindBackground, Label: "hog"})
	r.Mark(1, 3, "bg starts")
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, r.ChromeEvents()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, field := range []string{`"id"`, `"bp"`} {
		if strings.Contains(out, field) {
			t.Fatalf("no-migration trace leaks flow field %s:\n%s", field, out)
		}
	}
	want := `[{"name":"hog","cat":"background","ph":"X","ts":2000000,"dur":500000,"pid":0,"tid":0,"args":{"kind":"background"}},` +
		`{"name":"w[3]","cat":"task","ph":"X","ts":500000,"dur":1000000,"pid":0,"tid":1,"args":{"kind":"task"}},` +
		`{"name":"bg starts","cat":"marker","ph":"i","ts":3000000,"dur":0,"pid":0,"tid":1}]` + "\n"
	if out != want {
		t.Fatalf("no-migration trace changed:\n got: %s\nwant: %s", out, want)
	}
}
