package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/service"
	"cloudlb/internal/service/store"
)

// The service-mix traffic: an open loop of two independent users. The
// reader resubmits one of the Specs computed at set-up every readEvery
// (a cache hit) and fetches its rows; the writer submits a Spec never
// seen before every writeEvery, polls the job until it is done and
// fetches its rows. At 20 s a run has 2000 reads and 100 writes, so the
// read p99 and write p90 each have at least ten samples beyond them.
const (
	setupSpecs = 8
	readEvery  = 10 * time.Millisecond
	writeEvery = 200 * time.Millisecond
	pollEvery  = 2 * time.Millisecond
	// lateLimit is how late a send may leave before it counts as late; a
	// run with more than maxLateFrac of its sends late is invalid. On the
	// shared two-core host the baseline was recorded on, 2-3% of sends
	// leave late even with the garbage collector off, so the limit flags a
	// generator that fell behind, not host jitter.
	lateLimit   = time.Millisecond
	maxLateFrac = 0.05
)

// serviceSpec is one scenarios-method job: interfered 8-core Wave2D
// without and with RefineLB, small enough that computing it takes about
// half the write interval. Two scenarios, not one: the service records a
// full virtual-time trace for single-scenario jobs, which would double
// the job's cost.
func serviceSpec(s int64) experiment.Spec {
	return experiment.Spec{
		App: experiment.Wave2D, Cores: []int{8},
		Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine},
		Seeds:      []int64{s}, Scale: 0.05, BG: experiment.BGWave2D,
	}
}

func serviceKey(s int64) string { return fmt.Sprintf("service-mix/seed=%d", s) }

// serviceInputs lists the Spec seeds of set-up (the reader's working
// set) and of the first n writes. Set-up uses seed..seed+7 and writes
// continue from seed+8, so within a run no write repeats a cached Spec.
func serviceInputs(seed int64, writes int) (setup, write []int64) {
	for k := int64(0); k < setupSpecs; k++ {
		setup = append(setup, seed+k)
	}
	for i := int64(0); i < int64(writes); i++ {
		write = append(write, seed+setupSpecs+i)
	}
	return setup, write
}

// readOrder is the reader's seeded choice among the set-up Specs.
func readOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(setupSpecs)
	}
	return out
}

// serviceFixture is one in-process service on a loopback listener with a
// fresh store, plus the two clients that load it.
type serviceFixture struct {
	e         *env
	dir       string
	svc       *service.Service
	srv       *http.Server
	served    chan struct{}
	reader    *service.Client
	writer    *service.Client
	transport []*http.Transport
	// rows and hashes are the set-up Specs' rows.json bytes and content
	// addresses, the reference every cache hit is checked against.
	rows   [][]byte
	hashes []string
}

func serviceSetup(ctx context.Context, e *env) (fixture, error) {
	dir, err := os.MkdirTemp("", "bench-store-")
	if err != nil {
		return nil, err
	}
	f := &serviceFixture{e: e, dir: dir, served: make(chan struct{})}
	if err := f.start(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *serviceFixture) start(ctx context.Context) error {
	st, err := store.Open(f.dir)
	if err != nil {
		return err
	}
	f.svc, err = service.New(service.Config{Store: st, Workers: 1})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	f.svc.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv = &http.Server{Handler: mux}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	// One connection per user: the two users never share a socket.
	client := func() *service.Client {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		f.transport = append(f.transport, tr)
		return &service.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		}
	}
	f.reader, f.writer = client(), client()

	setup, _ := serviceInputs(f.e.seed, 0)
	for _, s := range setup {
		w, err := f.write(ctx, s, false)
		f.e.checks.op(serviceKey(s), w.hash, err)
		if err != nil {
			return fmt.Errorf("set-up job %s: %w", serviceKey(s), err)
		}
		f.rows = append(f.rows, w.rows)
		f.hashes = append(f.hashes, w.hash)
	}
	// Warm-up: one cache hit.
	r, err := f.read(ctx, 0)
	f.e.checks.op(serviceKey(setup[0]), r.hash, err)
	if err != nil {
		return fmt.Errorf("warm-up read: %w", err)
	}
	return nil
}

func (f *serviceFixture) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.srv.Shutdown(ctx) // a forced close still ends Serve below
		cancel()
		<-f.served
	}
	if f.svc != nil {
		f.svc.Close()
	}
	for _, tr := range f.transport {
		tr.CloseIdleConnections()
	}
	_ = os.RemoveAll(f.dir) // a temporary store; nothing to keep
}

func (f *serviceFixture) probe(context.Context) (map[string]float64, error) { return nil, nil }

// fetchRows downloads a job's rows.json and checks the bytes hash to the
// content address they were served under.
func fetchRows(ctx context.Context, c *service.Client, v service.JobView) ([]byte, string, error) {
	art, ok := v.Artifacts["rows.json"]
	if !ok {
		return nil, "", fmt.Errorf("job %s has no rows.json", v.ID)
	}
	b, err := c.Artifact(ctx, art)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(b)
	if h := hex.EncodeToString(sum[:]); h != art.Hash {
		return nil, "", fmt.Errorf("rows.json of job %s hashes to %s, served as %s", v.ID, h, art.Hash)
	}
	return b, art.Hash, nil
}

// written is one computed job as the writer saw it.
type written struct {
	rows []byte
	hash string
	view service.JobView
}

// write submits a never-seen Spec, polls the job to completion and
// fetches its rows.
func (f *serviceFixture) write(ctx context.Context, s int64, traced bool) (written, error) {
	c := f.writer
	span := f.traceSpan(traced, "write-submit")
	v, err := c.Submit(ctx, service.Request{Method: "scenarios", Spec: serviceSpec(s)})
	span.End("seed", s)
	if err != nil {
		return written{}, err
	}
	if v.Cached {
		return written{view: v}, errors.New("a never-seen Spec was served from the cache")
	}
	span = f.traceSpan(traced, "write-poll")
	for v.State != service.StateDone && v.State != service.StateFailed {
		select {
		case <-ctx.Done():
			return written{view: v}, ctx.Err()
		case <-time.After(pollEvery):
		}
		if v, err = c.Job(ctx, v.ID); err != nil {
			return written{}, err
		}
	}
	span.End("job", v.ID)
	if v.State == service.StateFailed {
		return written{view: v}, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	}
	span = f.traceSpan(traced, "write-rows")
	rows, hash, err := fetchRows(ctx, c, v)
	span.End("job", v.ID)
	return written{rows: rows, hash: hash, view: v}, err
}

// readResult is one cache-hit read as the reader saw it.
type readResult struct {
	hash            string
	view            service.JobView
	submit, rowsGet time.Duration
}

// read resubmits set-up Spec k and fetches its rows. A hit must be
// served done from the cache, under the content address set-up computed,
// with the same bytes.
func (f *serviceFixture) read(ctx context.Context, k int) (readResult, error) {
	var r readResult
	c := f.reader
	t0 := time.Now()
	v, err := c.Submit(ctx, service.Request{Method: "scenarios", Spec: serviceSpec(f.e.seed + int64(k))})
	r.submit = time.Since(t0)
	r.view = v
	if err != nil {
		return r, err
	}
	if !v.Cached || v.State != service.StateDone {
		return r, fmt.Errorf("resubmitted Spec not served from cache (state %s, cached %v)", v.State, v.Cached)
	}
	t1 := time.Now()
	rows, hash, err := fetchRows(ctx, c, v)
	r.rowsGet = time.Since(t1)
	r.hash = hash
	if err != nil {
		return r, err
	}
	if hash != f.hashes[k] || !bytes.Equal(rows, f.rows[k]) {
		return r, fmt.Errorf("cache hit for %s returned %s, computed %s", serviceKey(f.e.seed+int64(k)), hash, f.hashes[k])
	}
	return r, nil
}

// traceSpan opens a benchmark span when the request is traced.
func (f *serviceFixture) traceSpan(traced bool, name string) *obs.ActiveSpan {
	if !traced {
		return nil
	}
	return f.e.bt.Start(catBench, name, 0)
}

// timerSlack is how early sleepUntil's timer fires. Go timers wake a
// median 0.5 ms late on Linux, which would make every open-loop send late
// and add the generator's own delay to each latency; the last stretch is
// spun instead, at a cost of under a tenth of a core at 100 sends/s.
const timerSlack = 1500 * time.Microsecond

// sleepUntil waits for t or ctx, whichever comes first.
func sleepUntil(ctx context.Context, t time.Time) error {
	if d := time.Until(t) - timerSlack; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	// No runtime.Gosched here: yielding would let a CPU-bound job
	// goroutine take the processor for up to a preemption slice.
	for time.Now().Before(t) {
	}
	return ctx.Err()
}

func (f *serviceFixture) measure(ctx context.Context) (*measured, error) {
	start := time.Now()
	nReads := int(f.e.seconds / readEvery)
	nWrites := int(f.e.seconds / writeEvery)
	order := readOrder(f.e.seed, nReads)
	_, writeSeeds := serviceInputs(f.e.seed, nWrites)

	// Each user goroutine owns its own samples, accumulator and counts.
	var (
		wg                  sync.WaitGroup
		reads, writes       []sample
		readAcc             = layerAcc{}
		writeAcc            = layerAcc{}
		readErr, wrErr      error
		readHits, writeHits int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, k := range order {
			due := start.Add(time.Duration(i) * readEvery)
			if readErr = sleepUntil(ctx, due); readErr != nil {
				return
			}
			// Odd reads of a traced run are traced; the even ones give the
			// untraced median the tracing overhead is measured against.
			traced := f.e.traced && i%2 == 1
			late := time.Since(due)
			span := f.traceSpan(traced, "read")
			r, err := f.read(ctx, k)
			lat := time.Since(due)
			span.End("spec", k, "submit_ms", r.submit.Seconds()*1e3, "rows_ms", r.rowsGet.Seconds()*1e3)
			ok := f.e.checks.op(serviceKey(f.e.seed+int64(k)), r.hash, err)
			if r.view.Cached {
				readHits++
			}
			reads = append(reads, sample{Kind: "read", DueS: due.Sub(start).Seconds(), LateMS: late.Seconds() * 1e3,
				LatencyS: lat.Seconds(), Traced: traced, Failed: !ok})
			if traced && ok {
				readAcc.add("service.submit_ms", r.submit.Seconds()*1e3)
				readAcc.add("service.artifact_get_ms", r.rowsGet.Seconds()*1e3)
				readAcc.add("service.cache_lookup_us", summaryTotal(r.view.Trace, obs.CatCache, "cache-lookup")*1e6)
			}
			if ctx.Err() != nil {
				readErr = ctx.Err()
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i, s := range writeSeeds {
			due := start.Add(time.Duration(i) * writeEvery)
			if wrErr = sleepUntil(ctx, due); wrErr != nil {
				return
			}
			late := time.Since(due)
			w, err := f.write(ctx, s, f.e.traced)
			lat := time.Since(due)
			ok := f.e.checks.op(serviceKey(s), w.hash, err)
			if w.view.Cached {
				writeHits++
			}
			writes = append(writes, sample{Kind: "write", DueS: due.Sub(start).Seconds(), LateMS: late.Seconds() * 1e3,
				LatencyS: lat.Seconds(), Traced: f.e.traced, Failed: !ok})
			if f.e.traced && ok {
				// Fetched after the latency is taken: the per-job registry
				// is a traced run's extra request.
				snap, err := f.jobMetrics(ctx, w.view)
				if err != nil {
					f.e.checks.fail(fmt.Sprintf("%s metrics.json: %v", serviceKey(s), err))
					continue
				}
				writeAcc.computedJob(w.view.Trace, snap)
			}
			if ctx.Err() != nil {
				wrErr = ctx.Err()
				return
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(readErr, wrErr); err != nil {
		return nil, err
	}

	m := &measured{opKind: "read", samples: append(reads, writes...)}
	if f.e.traced {
		m.layer = readAcc.finish()
		for k, v := range writeAcc.finish() {
			m.layer[k] = v
		}
		var readLat, writeLat []float64
		for _, s := range reads {
			readLat = append(readLat, s.LatencyS)
		}
		for _, s := range writes {
			writeLat = append(writeLat, s.LatencyS)
		}
		m.layer["service.job_computed_s"] = median(writeLat)
		m.layer["service.job_computed_s.p90"] = percentile(writeLat, 90)
		m.layer["service.job_hit_ms.p99"] = percentile(readLat, 99) * 1e3
		m.layer["service.hit_ratio"] = ratio(float64(readHits+writeHits), float64(len(reads)+len(writes)))
	}
	// Every read must hit and every write must miss: the served mix is
	// exactly the generated one.
	if readHits != len(reads) || writeHits != 0 {
		f.e.checks.fail(fmt.Sprintf("service-mix: %d of %d reads and %d of %d writes served from cache",
			readHits, len(reads), writeHits, len(writes)))
	}
	return m, nil
}

// jobMetrics fetches a computed job's per-job registry snapshot.
func (f *serviceFixture) jobMetrics(ctx context.Context, v service.JobView) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	art, ok := v.Artifacts["metrics.json"]
	if !ok {
		return snap, fmt.Errorf("job %s has no metrics.json", v.ID)
	}
	b, err := f.writer.Artifact(ctx, art)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}
