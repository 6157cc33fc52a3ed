// Package fault defines seeded, deterministic fault plans for the
// simulated MPI runtime: message-level faults (drop, delay,
// duplication) injected into the delivery path, process-level faults
// (crash or stall of a rank — in practice a Casper ghost — at a chosen
// virtual time), and straggler nodes whose computation runs slowed.
//
// A Plan is pure data; an Injector is the runtime's handle on it. The
// injector owns a private random source seeded from the plan, separate
// from the simulation engine's RNG, so enabling a fault plan never
// perturbs the engine's random sequence: a plan with all rates zero is
// observationally identical to no plan at all, and the same seed plus
// the same plan reproduces the exact same fault sequence.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Crash kills a rank at a virtual time: its process stops, in-flight
// and future messages to it are swallowed, and it never speaks again.
type Crash struct {
	Rank int      // world rank to kill
	At   sim.Time // virtual time of death
}

// AppCrash kills an application (non-ghost) rank at a virtual time,
// recoverably: the process freezes, the failure detector confirms the
// death, and the Casper recovery engine respawns it with its window
// state restored from the last closed-epoch snapshot and the open
// epoch's journaled operations replayed. Contrast Crash, which is
// permanent death.
type AppCrash struct {
	Rank int      // world rank to kill (must be an application rank)
	At   sim.Time // virtual time of death
}

// Stall freezes a rank's progress engine for a duration: active
// messages arriving in the window are serviced only after it ends, and
// the rank emits no heartbeats meanwhile. A stall past half the health
// monitor's grace period makes the rank *suspected*; only the
// two-phase detector's probes (which a stalled rank still answers at
// the transport level) keep it from being confirmed dead — which is
// the point.
type Stall struct {
	Rank     int
	At       sim.Time
	Duration sim.Duration
}

// Plan is a complete, seeded description of every fault a run will
// experience.
type Plan struct {
	// Seed for the injector's private random source. Zero selects 1 so
	// that the zero Plan is still fully deterministic.
	Seed int64

	// Per-transmission probabilities in [0, 1]. A dropped transmission
	// vanishes on the wire; a delayed one arrives up to DelayMax late;
	// a duplicated one is delivered twice.
	DropRate  float64
	DelayRate float64
	DupRate   float64

	// CorruptRate is the per-transmission probability of payload
	// corruption on the wire. The reliable transport marks a corrupt
	// packet, drops it at the receiver, and recovers by ordinary
	// timeout/retransmission. Its random draw
	// happens only when the rate is nonzero, so plans without it keep
	// their historical fault sequences bit-identical.
	CorruptRate float64

	// DelayMax bounds the extra latency of a delayed transmission.
	// Zero selects 10 microseconds.
	DelayMax sim.Duration

	// Scheduled process faults.
	Crashes    []Crash
	AppCrashes []AppCrash
	Stalls     []Stall

	// Stragglers maps node index -> compute slowdown factor (>= 1).
	Stragglers map[int]float64
}

// Validate checks the plan for nonsense values.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", p.DropRate}, {"DelayRate", p.DelayRate}, {"DupRate", p.DupRate},
		{"CorruptRate", p.CorruptRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s = %g outside [0, 1]", r.name, r.v)
		}
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("fault: DelayMax = %v negative", p.DelayMax)
	}
	for _, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("fault: crash of rank %d at negative time %v", c.Rank, c.At)
		}
	}
	for _, c := range p.AppCrashes {
		if c.At < 0 {
			return fmt.Errorf("fault: app crash of rank %d at negative time %v", c.Rank, c.At)
		}
	}
	for _, s := range p.Stalls {
		if s.At < 0 || s.Duration < 0 {
			return fmt.Errorf("fault: stall of rank %d with negative time", s.Rank)
		}
	}
	for node, f := range p.Stragglers {
		if f < 1 {
			return fmt.Errorf("fault: straggler factor %g on node %d below 1", f, node)
		}
	}
	return nil
}

// zeroRates reports whether no randomized transmission fault can ever
// fire, in which case Transmission never touches the random source.
func (p *Plan) zeroRates() bool {
	return p.DropRate == 0 && p.DelayRate == 0 && p.DupRate == 0 && p.CorruptRate == 0
}

// Decision is the injector's verdict on one transmission.
type Decision struct {
	Drop    bool
	Dup     bool
	Corrupt bool
	Extra   sim.Duration // added latency (zero unless delayed)
}

// Stats counts faults actually injected.
type Stats struct {
	Drops    int64
	Delays   int64
	Dups     int64
	Corrupts int64
}

// Injector evaluates a Plan at runtime with a private random source.
type Injector struct {
	plan  Plan
	zero  bool
	rng   *rand.Rand
	stats Stats
}

// NewInjector builds an injector for the plan (copied; the caller may
// reuse or mutate its Plan afterwards).
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan := *p
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	if plan.DelayMax == 0 {
		plan.DelayMax = 10 * sim.Microsecond
	}
	return &Injector{
		plan: plan,
		zero: plan.zeroRates(),
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}, nil
}

// Plan returns the (defaulted) plan the injector runs.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns the counts of faults injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// Transmission decides the fate of one message transmission. With all
// rates zero it returns the zero Decision without consuming any
// randomness, so a zero-rate plan cannot perturb anything.
func (in *Injector) Transmission() Decision {
	if in.zero {
		return Decision{}
	}
	var d Decision
	if in.rng.Float64() < in.plan.DropRate {
		d.Drop = true
		in.stats.Drops++
		return d
	}
	if in.rng.Float64() < in.plan.DelayRate {
		d.Extra = sim.Duration(1 + in.rng.Int63n(int64(in.plan.DelayMax)))
		in.stats.Delays++
	}
	if in.rng.Float64() < in.plan.DupRate {
		d.Dup = true
		in.stats.Dups++
	}
	// Drawn only under a nonzero rate so plans without corruption keep
	// their historical random sequences (and thus fault schedules)
	// bit-identical.
	if in.plan.CorruptRate > 0 && in.rng.Float64() < in.plan.CorruptRate {
		d.Corrupt = true
		in.stats.Corrupts++
	}
	return d
}

// ComputeFactor returns the compute slowdown for a node (1 when the
// node is not a straggler).
func (in *Injector) ComputeFactor(node int) float64 {
	if f, ok := in.plan.Stragglers[node]; ok {
		return f
	}
	return 1
}
