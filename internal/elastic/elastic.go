// Package elastic injects cloud elasticity events — spot-instance style
// core revocations and later replacements — into a charm runtime. The
// paper's load balancing is evaluated under interference; this package
// supplies the companion failure model for the cloud setting the paper
// targets, where a provider can reclaim capacity mid-run (often with a
// short warning) and hand back a replacement later.
//
// A Schedule is a script of Revocations. Apply arms the script on a
// runtime's engine; the runtime's RevokePE/RestorePE do the heavy lifting.
package elastic

import (
	"cmp"
	"fmt"
	"slices"

	"cloudlb/internal/charm"
	"cloudlb/internal/sim"
)

// Revocation is one preemption: the PE's core goes offline at At, with
// Warning seconds of advance notice (0 = hard kill, detected only after
// the runtime's fault detection delay). If Restore is nonzero the PE
// comes back at that time — on ReplacementCore, or on the original core
// when ReplacementCore is -1.
type Revocation struct {
	PE              int          `json:"pe"`
	At              sim.Time     `json:"at"`
	Warning         sim.Duration `json:"warning,omitempty"`
	Restore         sim.Time     `json:"restore,omitempty"`
	ReplacementCore int          `json:"replacement_core,omitempty"`
}

// Schedule is a set of revocations applied to one runtime.
type Schedule []Revocation

// Validate checks a schedule against a runtime with numPEs PEs: times in
// range, warnings not reaching before t=0, restores after their outages
// begin, and no PE revoked again before it was restored.
func (s Schedule) Validate(numPEs int) error {
	lastRestore := make(map[int]sim.Time)
	for _, r := range sorted(s) {
		if r.PE < 0 || r.PE >= numPEs {
			return fmt.Errorf("elastic: revocation of PE %d outside [0,%d)", r.PE, numPEs)
		}
		if r.Warning < 0 {
			return fmt.Errorf("elastic: PE %d has negative warning %v", r.PE, r.Warning)
		}
		notice := r.At - sim.Time(r.Warning)
		if notice < 0 {
			return fmt.Errorf("elastic: PE %d notice at %v is before the run starts", r.PE, notice)
		}
		if r.Restore != 0 && r.Restore <= r.At {
			return fmt.Errorf("elastic: PE %d restored at %v, before its revocation at %v", r.PE, r.Restore, r.At)
		}
		if r.ReplacementCore < -1 {
			return fmt.Errorf("elastic: PE %d has invalid replacement core %d", r.PE, r.ReplacementCore)
		}
		if until, revoked := lastRestore[r.PE]; revoked {
			if until == 0 || notice < until {
				return fmt.Errorf("elastic: PE %d revoked again at %v while still revoked", r.PE, notice)
			}
		}
		lastRestore[r.PE] = r.Restore
	}
	return nil
}

// Apply validates the schedule and arms its events on the runtime's
// engine. Call before running the simulation.
func (s Schedule) Apply(rts *charm.RTS) {
	if err := s.Validate(rts.NumPEs()); err != nil {
		panic(err)
	}
	eng := rts.Engine()
	for _, r := range sorted(s) {
		r := r
		eng.At(r.At-sim.Time(r.Warning), func() { rts.RevokePE(r.PE, r.Warning) })
		if r.Restore != 0 {
			eng.At(r.Restore, func() { rts.RestorePE(r.PE, r.ReplacementCore) })
		}
	}
}

// sorted returns the schedule ordered by notice time (PE as tie-break),
// the order events are armed in.
func sorted(s Schedule) Schedule {
	out := append(Schedule(nil), s...)
	slices.SortStableFunc(out, func(a, b Revocation) int {
		na := a.At - sim.Time(a.Warning)
		nb := b.At - sim.Time(b.Warning)
		if na != nb {
			return cmp.Compare(na, nb)
		}
		return a.PE - b.PE
	})
	return out
}
