package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cloudlb/internal/obs"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Segment{Core: 0, Start: 0, End: 1})
	if segs := r.Segments(); segs != nil {
		t.Fatal("nil recorder returned segments")
	}
	if segs := r.CoreSegments(0); segs != nil {
		t.Fatal("nil recorder returned core segments")
	}
}

func TestSegmentsSorted(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 1, Start: 5, End: 6})
	r.Add(Segment{Core: 0, Start: 2, End: 3})
	r.Add(Segment{Core: 0, Start: 0, End: 1})
	segs := r.Segments()
	if len(segs) != 3 {
		t.Fatalf("%d segments", len(segs))
	}
	if segs[0].Core != 0 || segs[0].Start != 0 || segs[2].Core != 1 {
		t.Fatalf("not sorted: %+v", segs)
	}
}

func TestAddNormalizesReversedInterval(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 0, Start: 5, End: 2})
	s := r.Segments()[0]
	if s.Start != 2 || s.End != 5 {
		t.Fatalf("interval not normalized: %+v", s)
	}
}

func TestBusyFraction(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 0, Start: 0, End: 2, Kind: KindTask})
	r.Add(Segment{Core: 0, Start: 6, End: 8, Kind: KindBackground})
	if f := r.BusyFraction(0, KindTask, 0, 8); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("task fraction %v, want 0.25", f)
	}
	if f := r.BusyFraction(0, KindBackground, 0, 8); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("bg fraction %v, want 0.25", f)
	}
	if f := r.BusyFraction(1, KindTask, 0, 8); f != 0 {
		t.Fatalf("other core fraction %v", f)
	}
	if f := r.BusyFraction(0, KindTask, 5, 5); f != 0 {
		t.Fatal("empty window fraction nonzero")
	}
}

func TestMark(t *testing.T) {
	r := NewRecorder()
	r.Mark(2, 1.5, "bg starts")
	s := r.Segments()[0]
	if s.Kind != KindMarker || s.Start != 1.5 || s.End != 1.5 || s.Label != "bg starts" {
		t.Fatalf("bad marker %+v", s)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTask: "task", KindBackground: "background", KindLB: "lb", KindMarker: "marker", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String()=%q", k, k.String())
		}
	}
}

func TestRenderASCII(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 0, Start: 0, End: 5, Kind: KindTask, Label: "w[0]"})
	r.Add(Segment{Core: 1, Start: 5, End: 10, Kind: KindBackground, Label: "hog"})
	r.Add(Segment{Core: 1, Start: 2, End: 3, Kind: KindLB})
	var sb strings.Builder
	r.RenderASCII(&sb, []int{0, 1}, 0, 10, 10)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %q", out)
	}
	if !strings.Contains(lines[1], "#####") || !strings.Contains(lines[1], ".") {
		t.Fatalf("core 0 row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "bbbbb") || !strings.Contains(lines[2], "L") {
		t.Fatalf("core 1 row wrong: %q", lines[2])
	}
}

func TestRenderASCIIEmptyWindow(t *testing.T) {
	r := NewRecorder()
	var sb strings.Builder
	r.RenderASCII(&sb, []int{0}, 5, 5, 10)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty window not reported")
	}
}

func TestRenderSVG(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 0, Start: 0, End: 1, Kind: KindTask, Label: "w[0]"})
	r.Add(Segment{Core: 0, Start: 1, End: 2, Kind: KindBackground, Label: "hog"})
	r.Add(Segment{Core: 0, Start: 2, End: 3, Kind: KindLB, Label: "lb"})
	var sb strings.Builder
	r.RenderSVG(&sb, []int{0}, 0, 3, 300)
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(out, "#9e9e9e") {
		t.Fatal("background segment color missing")
	}
	if !strings.Contains(out, "#e6b422") {
		t.Fatal("LB segment color missing")
	}
	if !strings.Contains(out, "core 0") {
		t.Fatal("core label missing")
	}
}

// TestWriteChromeTrace encodes a recorder's events through the shared
// Chrome writer and checks the decoded array: sorted by (core, start),
// segments as complete events with times in microseconds, markers as
// instant events.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	r.Add(Segment{Core: 1, Start: 0.5, End: 1.5, Kind: KindTask, Label: "w[3]"})
	r.Add(Segment{Core: 0, Start: 2, End: 2.5, Kind: KindBackground, Label: "hog"})
	r.Mark(1, 3, "bg starts")
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, r.ChromeEvents()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	// Sorted by (core, start): hog on core 0 first.
	if events[0]["name"] != "hog" || events[0]["ph"] != "X" || events[0]["cat"] != "background" {
		t.Fatalf("event 0 wrong: %v", events[0])
	}
	if events[1]["ts"].(float64) != 0.5e6 || events[1]["dur"].(float64) != 1e6 {
		t.Fatalf("task timing wrong: %v", events[1])
	}
	if events[2]["ph"] != "i" {
		t.Fatalf("marker not an instant event: %v", events[2])
	}
}

func TestSegColorStable(t *testing.T) {
	a := segColor(Segment{Kind: KindTask, Label: "w[3]"})
	b := segColor(Segment{Kind: KindTask, Label: "w[3]"})
	if a != b {
		t.Fatal("label color not stable")
	}
}

func TestRenderASCIIOfflineDominates(t *testing.T) {
	r := NewRecorder()
	// Task activity overlapping the outage: the outage must win the cell.
	r.Add(Segment{Core: 0, Start: 0, End: 10, Kind: KindTask, Label: "w[0]"})
	r.Add(Segment{Core: 0, Start: 2.5, End: 7.5, Kind: KindOffline, Label: "revoked"})
	var sb strings.Builder
	r.RenderASCII(&sb, []int{0}, 0, 10, 4)
	out := sb.String()
	if !strings.Contains(out, "|#xx#|") {
		t.Fatalf("offline span not rendered as 'x':\n%s", out)
	}
	// The header legend is byte-frozen: committed artifacts embed it.
	if !strings.Contains(out, "('#'=task 'b'=background 'L'=LB '.'=idle)") {
		t.Fatalf("legend changed:\n%s", out)
	}
	if KindOffline.String() != "offline" {
		t.Fatal("KindOffline name wrong")
	}
}
