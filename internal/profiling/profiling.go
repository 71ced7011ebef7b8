// Package profiling wires the standard runtime/pprof CPU and heap
// profiles, the internal/metrics export, and the internal/telemetry live
// server behind the shared -cpuprofile/-memprofile/-metrics/-serve
// command-line flags of the binaries in cmd/. It exists so every command
// exposes the observability surface the same way and the README can
// document one workflow.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
	"cloudlb/internal/service"
	"cloudlb/internal/service/store"
	"cloudlb/internal/telemetry"
)

// Flags is the shared observability flag set. RegisterFlags installs the
// same flags on every command so the documentation, Makefile targets and
// muscle memory transfer between binaries.
type Flags struct {
	CPUProfile string
	MemProfile string
	// Metrics selects the runtime-metrics export: empty disables the
	// export ("-serve" may still enable collection), "-" writes Prometheus
	// text to stderr on exit, a *.json path writes a JSON snapshot, any
	// other path a Prometheus text file.
	Metrics string
	// Serve, when non-empty, starts the embedded telemetry server on this
	// address ("127.0.0.1:0" picks a free port) for the duration of the
	// run: live /metrics scrape, /api/v1/run + /api/v1/lbsteps JSON,
	// /events SSE, /debug/pprof and the dashboard at /.
	Serve string
	// ServeWait keeps the telemetry server answering for this long after
	// the workload finishes, so a scraper or browser can take a final
	// reading before the process exits.
	ServeWait time.Duration
	// Store, with -serve, opens (creating if missing) the content-
	// addressed artifact store at this directory and mounts the scenario
	// job service — POST /api/v1/jobs, GET /api/v1/artifacts/{hash} — on
	// the telemetry server, turning the binary into a result-caching
	// evaluation server for the duration of the run.
	Store string
	// Log selects the minimum structured-log level written to stderr as
	// JSON lines (debug, info, warn, error). Empty disables logging
	// entirely — the nil logger keeps every instrumented path free.
	Log string
	// LogFormat selects the stderr log encoding: "json" (the default,
	// one JSON object per line) or "text" (slog's logfmt-style handler).
	LogFormat string

	reg *metrics.Registry
	srv *telemetry.Server
	svc *service.Service
	log *obs.Logger
}

// RegisterFlags installs the shared observability flags on fs and
// returns the struct their values land in. Call before fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this path on exit")
	fs.StringVar(&f.Metrics, "metrics", "", `collect runtime metrics and write them on exit: "-" = Prometheus text to stderr, *.json = JSON snapshot of the series and the LB-step rows, other = Prometheus text file`)
	fs.StringVar(&f.Serve, "serve", "", `serve live telemetry over HTTP on this address for the duration of the run (e.g. "127.0.0.1:8080", ":0" picks a port)`)
	fs.DurationVar(&f.ServeWait, "serve-wait", 0, "keep the -serve endpoints up this long after the run completes so a final scrape isn't lost")
	fs.StringVar(&f.Store, "store", "", `with -serve: artifact-store directory backing the /api/v1/jobs scenario service (created if missing; results are cached by canonical Spec hash)`)
	fs.StringVar(&f.Log, "log", "", `write structured logs at this minimum level to stderr (debug, info, warn, error); empty disables logging`)
	fs.StringVar(&f.LogFormat, "logfmt", "json", `structured-log encoding for -log: "json" (one object per line) or "text"`)
	return f
}

// Logger returns the structured logger implied by -log: nil when the
// flag is unset (the nil logger is the zero-cost disabled state
// throughout the codebase), one shared stderr logger otherwise. Call
// after flag parsing; every call returns the same logger.
func (f *Flags) Logger() (*obs.Logger, error) {
	if f.Log == "" {
		return nil, nil
	}
	if f.log == nil {
		level, err := obs.ParseLevel(f.Log)
		if err != nil {
			return nil, fmt.Errorf("profiling: -log: %w", err)
		}
		f.log = obs.New(os.Stderr, level, f.LogFormat)
	}
	return f.log, nil
}

// Registry returns the registry implied by the flags: nil when neither
// -metrics nor -serve is set (collection disabled, nil-safe handles make
// the hot paths free), one shared registry otherwise. Call after flag
// parsing; every call returns the same registry.
func (f *Flags) Registry() *metrics.Registry {
	if f.Metrics == "" && f.Serve == "" {
		return nil
	}
	if f.reg == nil {
		f.reg = metrics.NewRegistry()
	}
	return f.reg
}

// Progress is the sink for the run's scenario account behind
// /api/v1/run: the telemetry server keeps each snapshot it is handed
// once Start has started it (-serve), and without one the call does
// nothing. A runner.Pool's OnProgress points here.
func (f *Flags) Progress(p runner.Progress) {
	if f.srv != nil {
		f.srv.SetProgress(p)
	}
}

// Start begins the CPU profile and the telemetry server per the flags
// and returns a stop function that drains the server, finishes the
// profiles and writes the metrics export — call it once, after the
// workload, on the success path (see Start's contract).
func (f *Flags) Start() (stop func() error, err error) {
	stopProfiles, err := Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	if f.Store != "" && f.Serve == "" {
		_ = stopProfiles()
		return nil, fmt.Errorf("profiling: -store requires -serve (the job API mounts on the telemetry server)")
	}
	log, err := f.Logger()
	if err != nil {
		_ = stopProfiles()
		return nil, err
	}
	if f.Serve != "" {
		f.srv = telemetry.NewServer(f.Registry())
		f.srv.SetLog(log)
		if f.Store != "" {
			st, err := store.Open(f.Store)
			if err != nil {
				_ = stopProfiles()
				return nil, fmt.Errorf("profiling: %w", err)
			}
			f.svc, err = service.New(service.Config{
				Store:   st,
				Metrics: f.Registry(),
				Notify:  f.srv.Broadcast,
				Log:     log,
			})
			if err != nil {
				_ = stopProfiles()
				return nil, fmt.Errorf("profiling: %w", err)
			}
			f.srv.Handle(f.svc.Register)
			f.srv.AddReadiness("service", f.svc.Ready)
		}
		addr, err := f.srv.Start(f.Serve)
		if err != nil {
			if f.svc != nil {
				f.svc.Close()
			}
			_ = stopProfiles()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s/\n", addr)
	}
	return func() error {
		if err := stopProfiles(); err != nil {
			return err
		}
		if f.srv != nil {
			if err := f.srv.Drain(f.ServeWait); err != nil {
				return err
			}
		}
		// The service closes after the listener: in-flight submits have
		// completed, nothing new can arrive.
		if f.svc != nil {
			f.svc.Close()
		}
		return f.writeMetrics()
	}, nil
}

// writeMetrics exports the registry per the -metrics flag. A registry
// that was never touched still exports (an empty document), making
// misconfiguration visible instead of silent.
func (f *Flags) writeMetrics() error {
	reg := f.Registry()
	if reg == nil || f.Metrics == "" {
		return nil
	}
	if f.Metrics == "-" {
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		return nil
	}
	out, err := os.Create(f.Metrics)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	defer out.Close()
	if strings.HasSuffix(f.Metrics, ".json") {
		err = reg.WriteJSON(out)
	} else {
		err = reg.WritePrometheus(out)
	}
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}

// Start begins a CPU profile if cpuPath is non-empty and returns a stop
// function. Calling stop finishes the CPU profile and, if memPath is
// non-empty, forces a GC and writes a heap profile — call it once, after
// the workload, on the success path (error exits may skip it; a truncated
// profile of a failed run has no value). Empty paths make both Start and
// stop no-ops, so callers can wire the flags through unconditionally.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // flush pending frees so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
