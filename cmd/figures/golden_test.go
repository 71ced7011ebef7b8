package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+goldenFile+" from this tree's output")

// goldenFile holds the SHA-256 of every output of reducedRuns, in
// sha256sum's format.
const goldenFile = "testdata/reduced-scale.sha256"

// reducedRuns regenerate every table figure but Figure 7 (a 1024-core
// world at any scale) at a twentieth of the paper's iterations, writing
// their CSVs into csv/.
var reducedRuns = []struct {
	name string
	args []string
}{
	{"all.txt", []string{"-fig", "all", "-cores", "4,8,16,32", "-seeds", "1", "-scale", "0.05", "-csv", "csv"}},
	{"fig5.txt", []string{"-fig", "5", "-seeds", "1", "-scale", "0.05", "-csv", "csv"}},
	{"fig6.txt", []string{"-fig", "6", "-seeds", "1", "-scale", "0.05", "-csv", "csv"}},
}

// TestReducedScaleFiguresGolden pins the stdout and CSVs of reducedRuns
// by SHA-256, so a change that moves any simulated figure value fails
// here and not only under `make verify-results`. A change that moves
// them on purpose rewrites the digests with
//
//	go test ./cmd/figures -run TestReducedScaleFiguresGolden -update
//
// and says why. Skipped under the race detector, which would make the
// three runs take minutes.
func TestReducedScaleFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes the reduced-scale figures slow")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	var sums strings.Builder
	add := func(name string, b []byte) {
		d := sha256.Sum256(b)
		sums.WriteString(hex.EncodeToString(d[:]) + "  " + name + "\n")
	}
	for _, r := range reducedRuns {
		cmd := exec.Command(exe, r.args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("figures %v: %v\n%s", r.args, err, stderr.String())
		}
		add(r.name, stdout.Bytes())
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "csv", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("csv/"+filepath.Base(path), b)
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := sums.String(); got != string(want) {
		t.Errorf("reduced-scale figure outputs differ from %s:\n got:\n%s\nwant:\n%s", goldenFile, got, want)
	}
}
