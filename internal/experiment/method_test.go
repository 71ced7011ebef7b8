package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloudlb/internal/obs"
)

// TestScenariosTraceBytesPinned pins a single-scenario batch's Chrome
// trace across versions: its SHA-256 is the content address under which
// the service stores trace.json, so any change to the sim timeline, the
// event type or the encoder that moves one byte re-keys every stored
// trace. The Spec migrates chares, so the pinned bytes cover the flow
// events (22 pairs) and LB segments (8) as well as tasks and background.
func TestScenariosTraceBytesPinned(t *testing.T) {
	sp := Spec{App: Wave2D, Cores: []int{8}, Strategies: []StrategyKind{Refine},
		Seeds: []int64{1}, Scale: 0.05, BG: BGWave2D}
	out, err := sp.RunMethod(context.Background(), "scenarios", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var flows, lbs int
	for _, ev := range out.Trace {
		switch {
		case ev.Phase == "s":
			flows++
		case ev.Category == "lb":
			lbs++
		}
	}
	if flows != 22 || lbs != 8 {
		t.Errorf("trace holds %d flow pairs and %d LB segments, want 22 and 8", flows, lbs)
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, out.Trace); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const (
		wantLen = 2726702
		wantSum = "f5847c9d97c4ccdd0d1b19c239da182785e559e922bf48516c47be1068a4f354"
	)
	if buf.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("trace.json is %d bytes with SHA-256 %x, want %d bytes with %s",
			buf.Len(), sum, wantLen, wantSum)
	}
}
