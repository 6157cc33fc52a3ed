// Package trace collects per-operation service records from the
// simulated MPI runtime and aggregates them into stall and utilization
// profiles. It answers the question the paper's analysis keeps asking:
// where did
// target-side software RMA wait, and who did the work — the target
// process, a progress thread, an interrupt handler, or a Casper ghost?
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Service is one serviced RMA operation at a target.
type Service struct {
	Rank      int // servicing rank (world rank); -1 for NIC hardware
	Origin    int // issuing world rank
	Kind      string
	Bytes     int
	Arrived   sim.Time // NIC delivery
	Start     sim.Time // service start (after any progress stall)
	End       sim.Time // applied
	Interrupt bool
	Hardware  bool
}

// Delay returns how long the operation waited between arrival and
// service — the progress stall the paper's approaches compete to
// eliminate.
func (s Service) Delay() sim.Duration { return s.Start.Sub(s.Arrived) }

// Tracer accumulates Service records. The zero value is a disabled
// tracer; construct with New.
type Tracer struct {
	enabled  bool
	services []Service
	faults   []Fault
}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{enabled: true} }

// Enabled reports whether records are being kept.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Reserve pre-sizes the service record buffer. Long traces append
// millions of records; reserving once avoids the doubling reallocations
// (and the copying) mid-run.
func (t *Tracer) Reserve(n int) {
	if !t.Enabled() || cap(t.services) >= n {
		return
	}
	grown := make([]Service, len(t.services), n)
	copy(grown, t.services)
	t.services = grown
}

// RecordService appends one record. Safe to call on a nil tracer.
func (t *Tracer) RecordService(s Service) {
	if !t.Enabled() {
		return
	}
	t.services = append(t.services, s)
}

// Services returns all records in the order they completed service.
func (t *Tracer) Services() []Service {
	if t == nil {
		return nil
	}
	return t.services
}

// Fault is one fault-related event: an injected crash or stall, a
// suspicion or confirmed failure detection, a recovery action
// (sequencer succession, lock reclamation), a rerouted operation, or an
// abandoned one.
type Fault struct {
	Kind string // "crash", "stall", "suspect", "detect", "reclaim", "succession", "reroute", "abandon"
	Rank int    // world rank the event concerns
	Peer int    // counterpart world rank, or -1 when not applicable
	At   sim.Time
}

// RecordFault appends one fault record. Safe to call on a nil tracer.
func (t *Tracer) RecordFault(f Fault) {
	if !t.Enabled() {
		return
	}
	t.faults = append(t.faults, f)
}

// Faults returns all fault records in event order.
func (t *Tracer) Faults() []Fault {
	if t == nil {
		return nil
	}
	return t.faults
}

// Profile aggregates records per servicing rank.
type Profile struct {
	Rank       int
	Services   int
	Bytes      int64
	Busy       sim.Duration // total service time
	Delay      sim.Duration // total arrival-to-service stall
	MaxDelay   sim.Duration
	Interrupts int
}

// Profiles returns per-rank aggregates sorted by rank; the hardware NIC
// appears as rank -1.
func (t *Tracer) Profiles() []Profile {
	if t == nil {
		return nil
	}
	byRank := map[int]*Profile{}
	for _, s := range t.services {
		p, ok := byRank[s.Rank]
		if !ok {
			p = &Profile{Rank: s.Rank}
			byRank[s.Rank] = p
		}
		p.Services++
		p.Bytes += int64(s.Bytes)
		p.Busy += s.End.Sub(s.Start)
		d := s.Delay()
		p.Delay += d
		if d > p.MaxDelay {
			p.MaxDelay = d
		}
		if s.Interrupt {
			p.Interrupts++
		}
	}
	out := make([]Profile, 0, len(byRank))
	for _, p := range byRank {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// TotalDelay sums the progress stall across all records — the headline
// "how much did operations wait for the target" number.
func (t *Tracer) TotalDelay() sim.Duration {
	var d sim.Duration
	for _, s := range t.Services() {
		d += s.Delay()
	}
	return d
}

// Render writes an aligned per-rank profile table.
func (t *Tracer) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %9s %12s %14s %14s %14s %6s\n",
		"rank", "services", "bytes", "busy", "stall", "max_stall", "intr")
	for _, p := range t.Profiles() {
		name := fmt.Sprintf("%d", p.Rank)
		if p.Rank == -1 {
			name = "NIC"
		}
		fmt.Fprintf(&b, "%6s %9d %12d %14v %14v %14v %6d\n",
			name, p.Services, p.Bytes, p.Busy, p.Delay, p.MaxDelay, p.Interrupts)
	}
	return b.String()
}
