// Package core implements Casper: a process-based asynchronous progress
// runtime for MPI RMA, reproducing Si et al., "Casper: An Asynchronous
// Progress Model for MPI RMA on Many-Core Architectures" (IPDPS 2015).
//
// Casper dedicates a user-chosen number of cores per node to "ghost
// processes". At initialization it carves the ghosts out of
// MPI_COMM_WORLD and gives applications COMM_USER_WORLD instead
// (Section II-A). When the application allocates an RMA window, Casper
// maps all user memory on a node into the ghosts' address space with a
// shared-memory window and exposes it through internal overlapping
// windows (Sections II-B, III-A). Every RMA operation is transparently
// redirected to a ghost process with a translated displacement
// (Section II-C), so software-handled operations (accumulates,
// noncontiguous transfers) are serviced by ghosts that are always inside
// MPI, while hardware put/get is unaffected.
//
// The package mirrors the paper's correctness machinery: per-user-process
// overlapping windows for lock permission management (III-A), static
// rank and 16-byte-aligned segment binding for multi-ghost atomicity and
// ordering (III-B), dynamic load balancing in static-binding-free
// intervals (III-B-3), and translation of active-target epochs to
// passive-target epochs (III-C).
//
// Applications program against mpi.Env; core.Init returns an Env whose
// windows are Casper windows — the PMPI-interception analogue.
package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Binding selects the static binding model of Section III-B.
type Binding int

// Binding models.
const (
	// BindRank statically binds each user process to one ghost; all
	// operations targeting that process go to that ghost (III-B-1).
	BindRank Binding = iota
	// BindSegment divides the node's exposed memory into
	// 16-byte-aligned chunks, one per ghost; operations are split and
	// routed by the bytes they touch (III-B-2).
	BindSegment
)

// String implements fmt.Stringer.
func (b Binding) String() string {
	if b == BindSegment {
		return "segment"
	}
	return "rank"
}

// LoadBalance selects the dynamic load-balancing policy applied to
// PUT/GET operations during static-binding-free intervals (III-B-3).
type LoadBalance int

// Load-balancing policies.
const (
	// LBStatic never deviates from the static binding.
	LBStatic LoadBalance = iota
	// LBRandom picks a uniformly random ghost.
	LBRandom
	// LBOpCounting picks the ghost this origin has issued the fewest
	// operations to.
	LBOpCounting
	// LBByteCounting picks the ghost this origin has issued the fewest
	// bytes to.
	LBByteCounting
)

// String implements fmt.Stringer.
func (l LoadBalance) String() string {
	switch l {
	case LBRandom:
		return "random"
	case LBOpCounting:
		return "op-counting"
	case LBByteCounting:
		return "byte-counting"
	default:
		return "static"
	}
}

// Epoch-type names accepted in the epochs_used info hint.
const (
	EpochFence   = "fence"
	EpochPSCW    = "pscw"
	EpochLock    = "lock"
	EpochLockAll = "lockall"
)

// InfoEpochsUsed is the Casper-specific info key declaring which epoch
// types the application will use on a window (Section III-A). The value
// is a comma-separated subset of "fence,pscw,lock,lockall". Fewer
// declared epoch types let Casper create fewer internal windows.
const InfoEpochsUsed = "epochs_used"

// InfoAsyncConfig ("on"/"off") controls redirection per window. With
// "off" Casper steps aside entirely: the window is an ordinary MPI
// window over COMM_USER_WORLD with no ghost mapping and no redirection
// overhead — for windows whose operations are all hardware-handled or
// latency-critical. Default "on". (Mirrors the real Casper's
// per-window async_config hint.)
const InfoAsyncConfig = "async_config"

// InfoBinding ("rank"/"segment") overrides Config.Binding per window.
const InfoBinding = "binding"

// InfoLoadBalance ("static"/"random"/"op"/"byte") overrides
// Config.LoadBalance per window.
const InfoLoadBalance = "load_balance"

// DefaultEpochs is the conservative default: all epoch types.
const DefaultEpochs = "fence,pscw,lockall,lock"

// SegmentAlign is the granularity of segment binding: the size of the
// largest MPI basic datatype, so no basic element is ever split between
// two ghost processes (Section III-B-2).
const SegmentAlign = 16

// Config controls a Casper deployment.
type Config struct {
	// NumGhosts is the number of ghost processes dedicated per node
	// (the CSP_NG environment variable in the real implementation).
	NumGhosts int

	// Binding is the static binding model. Default BindRank.
	Binding Binding

	// LoadBalance is the dynamic policy for PUT/GET in
	// static-binding-free intervals. Default LBStatic.
	LoadBalance LoadBalance

	// SelfOpLocal performs Put/Get whose target is the calling process
	// itself directly through the node's shared segment (a load/store,
	// no ghost round trip) — the self-operation handling Section III-D
	// alludes to. Accumulate-family operations are never taken local,
	// preserving their ordering against remotely issued ones.
	SelfOpLocal bool

	// UnsafeNoBinding disables the static binding protections and
	// distributes every operation (including accumulates) randomly
	// across ghosts. It exists to demonstrate the corruption the
	// paper's Section III-B machinery prevents; the validator flags
	// the violations. Never use outside tests/ablation.
	UnsafeNoBinding bool

	// UnsafeSharedLockWindow disables the per-user-process overlapping
	// windows of Section III-A, funneling all lock epochs through a
	// single window. Demonstrates the nested-lock error and the
	// serialization the overlapping windows avoid. Tests/ablation only.
	UnsafeSharedLockWindow bool

	// Overload, when non-nil, enables the load-aware rebalancer: a
	// periodic sweep watches every ghost's AM queue depth and service
	// EWMA, migrates rank bindings from overloaded to underloaded
	// ghosts at quiescent points, and degrades a node to original-mode
	// target-side progress when all its ghosts are saturated. The
	// paper defers this to future work (Section III-B-3 handles only
	// origin-side counting); nil leaves routing exactly static.
	Overload *OverloadConfig
}

// OverloadConfig tunes the load-aware rebalancer (see Config.Overload).
type OverloadConfig struct {
	// Interval between rebalancer sweeps. Default 20µs.
	Interval sim.Duration
	// MigrateThreshold: a ghost whose backlog estimate (queue depth ×
	// service-time EWMA) exceeds this is a migration source when
	// another ghost on the node sits at ≤ 1/4 of its backlog.
	// Default 2µs.
	MigrateThreshold sim.Duration
	// SaturateThreshold: when every ghost of a node exceeds this
	// backlog, the node degrades to original-mode target-side
	// progress until the ghosts drain to 1/4 of it. Default 200µs.
	SaturateThreshold sim.Duration
}

func (c *OverloadConfig) withDefaults() OverloadConfig {
	out := *c
	if out.Interval == 0 {
		out.Interval = 20 * sim.Microsecond
	}
	if out.MigrateThreshold == 0 {
		out.MigrateThreshold = 2 * sim.Microsecond
	}
	if out.SaturateThreshold == 0 {
		out.SaturateThreshold = 200 * sim.Microsecond
	}
	return out
}

// redirectOverhead is the origin-side bookkeeping cost Casper adds to
// each redirected operation.
const redirectOverhead = 50 * sim.Nanosecond

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumGhosts <= 0 {
		return fmt.Errorf("casper: NumGhosts = %d, need at least one ghost per node", c.NumGhosts)
	}
	return nil
}

// epochSet is the parsed epochs_used hint.
type epochSet struct {
	fence, pscw, lock, lockall bool
}

func parseEpochs(s string) (epochSet, error) {
	var e epochSet
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case EpochFence:
			e.fence = true
		case EpochPSCW:
			e.pscw = true
		case EpochLock:
			e.lock = true
		case EpochLockAll:
			e.lockall = true
		case "":
		default:
			return e, fmt.Errorf("casper: unknown epoch type %q in %s", part, InfoEpochsUsed)
		}
	}
	return e, nil
}

// needActive reports whether the one shared internal window (for
// active-target and lockall epochs) is required.
func (e epochSet) needActive() bool { return e.fence || e.pscw || e.lockall }

func (e epochSet) String() string {
	var parts []string
	if e.fence {
		parts = append(parts, EpochFence)
	}
	if e.pscw {
		parts = append(parts, EpochPSCW)
	}
	if e.lockall {
		parts = append(parts, EpochLockAll)
	}
	if e.lock {
		parts = append(parts, EpochLock)
	}
	return strings.Join(parts, ",")
}
