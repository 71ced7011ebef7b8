package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// goldenJSON maps an op's input key to the SHA-256 digest of its result
// rows at the commit that recorded it (see -write-golden).
//
//go:embed golden.json
var goldenJSON []byte

// checker is the output check behind "correct", "attempted" and
// "failed". Every op reports its input key and result digest; a digest
// that differs from the golden one, or from an earlier op on the same
// input, fails the op, as does any error. Safe for concurrent use.
type checker struct {
	golden map[string]string

	mu        sync.Mutex
	seen      map[string]string
	attempted int
	failed    int
	errs      []string
}

// maxErrs bounds the failure messages a record keeps.
const maxErrs = 20

func newChecker() (*checker, error) {
	c := &checker{seen: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return c, nil
}

// op records one attempted op and reports whether it passed.
func (c *checker) op(key, digest string, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case err != nil:
		c.failLocked(fmt.Sprintf("%s: %v", key, err))
	case c.golden[key] != "" && c.golden[key] != digest:
		c.failLocked(fmt.Sprintf("%s: digest %s, golden %s", key, digest, c.golden[key]))
	case c.seen[key] != "" && c.seen[key] != digest:
		c.failLocked(fmt.Sprintf("%s: digest %s differs from an earlier op's %s", key, digest, c.seen[key]))
	default:
		c.seen[key] = digest
		return true
	}
	return false
}

// fail records a failed check that is not an op of its own, such as the
// served cache-hit mix.
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(msg)
}

func (c *checker) failLocked(msg string) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, msg)
	}
}

func (c *checker) counts() (attempted, failed int, errs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.errs...)
}

// writeGolden merges the digests this run saw into the golden file at
// path (created if missing).
func (c *checker) writeGolden(path string) error {
	merged := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	c.mu.Lock()
	for k, v := range c.seen {
		if v != "" {
			merged[k] = v
		}
	}
	c.mu.Unlock()
	b, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint identifies the host and build a record was measured on.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
}

// sample is one timed op. Due is when the op was scheduled, relative to
// the start of the measured window; Late is how long after that the
// load generator actually sent it; Latency counts from Due.
type sample struct {
	Kind     string  `json:"kind"`
	DueS     float64 `json:"due_s"`
	LateMS   float64 `json:"late_ms,omitempty"`
	LatencyS float64 `json:"latency_s"`
	Traced   bool    `json:"traced,omitempty"`
	Failed   bool    `json:"failed,omitempty"`
}

// record is everything one run measured: the raw samples behind every
// metric, so compare (and a reader) can recompute any statistic.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Errors      []string               `json:"errors,omitempty"`
	Valid       bool                   `json:"valid"`
	SetupS      []float64              `json:"setup_s"`
	Samples     []sample               `json:"samples"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *record) result() result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readRecords loads every record in dir, sorted by file name.
func readRecords(dir string) ([]*record, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*record
	for _, e := range ents { // ReadDir sorts by name
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != "" {
			out = append(out, &r)
		}
	}
	return out, nil
}
