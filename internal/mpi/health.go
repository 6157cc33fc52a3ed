package mpi

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Process-failure model. Two layers of knowledge coexist, as in a real
// system:
//
//   - Ground truth: killRank marks a Rank failed at its crash instant.
//     From then on its goroutine never runs again, messages to it are
//     swallowed, and collectives complete over the survivors.
//   - Detection: the rest of the system only learns about the death
//     through missed heartbeats. healthState schedules a beacon per
//     tracked rank and a monitor sweep, both as background events in
//     the DES; after a grace period without a beacon the rank is marked
//     health-failed and death hooks fire (retransmission failover, the
//     Casper rebinding machinery).
//
// A stalled rank skips its beacons, so prolonged silence alone cannot
// distinguish a stall from a crash. Detection is therefore two-phase:
// after half the grace period of silence a rank becomes *suspected*,
// and the monitor starts direct probes — transport-level echoes that a
// stalled-but-alive rank still answers (stalls gate the active-message
// service path, not wire transit). A rank is *confirmed* dead only
// once both beacons and probe acks have been silent for the full grace
// period, and suspicion is dropped (with hysteresis counted as a false
// suspect) as soon as beacons resume. Confirmation therefore implies
// ground-truth death, which is what lets the succession and lock
// reclamation hooks act irrevocably.

// Default health-monitoring parameters.
const (
	defaultBeaconInterval = 20 * sim.Microsecond
	defaultGracePeriod    = 80 * sim.Microsecond
	defaultProbeRTT       = 10 * sim.Microsecond

	// defaultRespawnDelay models the launcher restarting a crashed
	// application process once the survivors have agreed on its death:
	// fork/exec, MPI re-initialization, rejoining the job.
	defaultRespawnDelay = 150 * sim.Microsecond
)

// healthState is the world-global failure detector. Its per-rank tables
// are indexed by world rank: the monitor walks every tracked rank each
// interval.
type healthState struct {
	w          *World
	interval   sim.Duration
	grace      sim.Duration
	probeRTT   sim.Duration
	tracked    []int      // world ranks, in registration order
	isTracked  []bool     // by world rank
	lastSeen   []sim.Time // last beacon
	lastAck    []sim.Time // last probe echo of a suspected rank; 0 = none
	suspected  []bool
	failed     []bool
	nfailed    int
	monitoring bool
}

// beaconEv is the recurring heartbeat of one tracked rank: one object,
// re-armed every interval.
type beaconEv struct {
	h  *healthState
	id int
}

// monitorEv is the health state as its own recurring monitor event.
type monitorEv healthState

func (m *monitorEv) Step() { (*healthState)(m).monitor() }

// TrackHealth begins heartbeat liveness monitoring of the given world
// ranks (typically Casper's ghosts). No-op unless the world has a fault
// plan — without one no process can fail and monitoring would be pure
// overhead. Idempotent per rank; callable from any simulation context.
func (w *World) TrackHealth(worldRanks []int) {
	if w.inj == nil {
		return
	}
	if w.health == nil {
		n := len(w.ranks)
		w.health = &healthState{
			w:         w,
			interval:  defaultBeaconInterval,
			grace:     defaultGracePeriod,
			probeRTT:  defaultProbeRTT,
			isTracked: make([]bool, n),
			lastSeen:  make([]sim.Time, n),
			lastAck:   make([]sim.Time, n),
			suspected: make([]bool, n),
			failed:    make([]bool, n),
		}
	}
	h := w.health
	now := w.eng.Now()
	for _, id := range worldRanks {
		if id < 0 || id >= len(w.ranks) || h.isTracked[id] {
			continue
		}
		h.tracked = append(h.tracked, id)
		h.isTracked[id] = true
		h.lastSeen[id] = now
		(&beaconEv{h: h, id: id}).Step()
	}
	if !h.monitoring && len(h.tracked) > 0 {
		h.monitoring = true
		w.eng.AfterBGRun(h.interval, (*monitorEv)(h))
	}
}

// HealthFailed reports whether the failure detector has declared the
// rank dead. False for untracked ranks and worlds without monitoring —
// ground-truth death (Rank.failed) may precede detection.
func (w *World) HealthFailed(worldRank int) bool {
	return w.health != nil && w.health.failed[worldRank]
}

// HealthSuspected reports whether the rank is in the suspect phase:
// silent past half the grace period but not yet confirmed dead. A
// stalled rank suspends here and recovers; a crashed one proceeds to
// confirmation.
func (w *World) HealthSuspected(worldRank int) bool {
	return w.health != nil && w.health.suspected[worldRank]
}

// AnyHealthFailure reports whether any tracked rank has been declared
// dead — the fast path that keeps fault-free routing on the seed code
// path.
func (w *World) AnyHealthFailure() bool {
	return w.health != nil && w.health.nfailed > 0
}

// healthTracked reports whether the rank is under heartbeat monitoring.
func (w *World) healthTracked(worldRank int) bool {
	return w.health != nil && w.health.isTracked[worldRank]
}

// Step is one beat. A crashed rank stops beating forever; a stalled one
// skips beats until the stall ends.
func (b *beaconEv) Step() {
	h := b.h
	r := h.w.ranks[b.id]
	if r.failed {
		return
	}
	now := h.w.eng.Now()
	if now >= r.stalledUntil && !r.down {
		// A down rank is frozen: it emits no beacons, so the detector
		// confirms its death; the beat resumes by itself after revival.
		h.lastSeen[b.id] = now
	}
	h.w.eng.AfterBGRun(h.interval, b)
}

// monitor is the recurring suspect→confirm sweep. Tracked ranks are
// visited in registration order so detection order is deterministic.
// Suspicion begins after grace/2 of beacon silence and triggers direct
// probes; confirmation requires the full grace period without either a
// beacon or a probe ack, so the confirm instant for a plain crash is
// exactly the single-phase detector's (a corpse never acks, so the ack
// clock never moves).
func (h *healthState) monitor() {
	now := h.w.eng.Now()
	for _, id := range h.tracked {
		if h.failed[id] {
			continue
		}
		quiet := now.Sub(h.lastSeen[id])
		if h.suspected[id] {
			if quiet <= h.grace/2 {
				// Beacons resumed: the rank was stalled, not dead.
				h.suspected[id], h.lastAck[id] = false, 0
				h.w.ranks[id].stats.FalseSuspects++
				continue
			}
			alive := h.lastSeen[id]
			if ack := h.lastAck[id]; ack > alive {
				alive = ack
			}
			if now.Sub(alive) > h.grace {
				h.markFailed(id)
				continue
			}
			h.probe(id)
			continue
		}
		if quiet > h.grace/2 {
			h.suspected[id] = true
			h.w.ranks[id].stats.Suspects++
			if t := h.w.tracer; t.Enabled() {
				t.RecordFault(trace.Fault{Kind: "suspect", Rank: id, Peer: -1, At: now})
			}
			h.probe(id)
		}
	}
	h.w.eng.AfterBGRun(h.interval, (*monitorEv)(h))
}

// probe sends one direct liveness probe to a suspected rank. The echo
// is a transport-level round trip serviced below the active-message
// layer, so a stalled rank still answers it while a crashed one never
// does.
func (h *healthState) probe(id int) {
	r := h.w.ranks[id]
	h.w.eng.AfterBG(h.probeRTT, func() {
		if !r.failed && !r.down {
			h.lastAck[id] = h.w.eng.Now()
		}
	})
}

// markFailed records the detection and fires the death hooks
// (retransmission failover and any layered recovery machinery).
func (h *healthState) markFailed(id int) {
	if h.failed[id] {
		return
	}
	h.failed[id] = true
	h.nfailed++
	h.suspected[id], h.lastAck[id] = false, 0
	if t := h.w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "detect", Rank: id, Peer: -1, At: h.w.eng.Now()})
	}
	for _, fn := range h.w.deathHooks {
		fn(id)
	}
	if h.w.ranks[id].down {
		h.beginRecovery(id)
	}
}

// beginRecovery starts the post-confirmation pipeline for a down
// application rank: a ULFM-style agreement round first — the survivors
// run a dissemination consensus over the acknowledged failure, so every
// rank converges on the same failure epoch before any recovery acts —
// then respawn, state restore, and thaw.
func (h *healthState) beginRecovery(id int) {
	w := h.w
	alive := 0
	for _, r := range w.ranks {
		if !r.failed && !r.down {
			alive++
		}
	}
	agree := sim.Duration(rounds(alive)) * 2 * h.probeRTT
	w.eng.AfterBG(agree, func() { h.agreeDone(id) })
}

// agreeDone runs when the failure agreement completes: the failure
// epoch advances, survivors are notified with a typed error (under
// ErrorsReturn only), and the launcher's respawn is charged.
func (h *healthState) agreeDone(id int) {
	w := h.w
	if w.ranks[id].failed {
		return // permanently killed mid-agreement
	}
	w.failureEra++
	if w.cfg.Errors == ErrorsReturn {
		// The agreed failure surfaces on every survivor as a typed
		// MPI_ERR_PROC_FAILED, ULFM-style.
		for _, r := range w.ranks {
			if r.failed || r.down {
				continue
			}
			r.raise(ErrProcFailed, "rank %d failed (failure epoch %d); recovery in progress",
				id, w.failureEra)
		}
	}
	w.eng.AfterBG(defaultRespawnDelay, func() { h.restoreRank(id) })
}

// restoreRank performs the state restore of the respawned process: the
// layered runtime rolls the rank's window state back to the last
// closed-epoch snapshot and replays the open epoch's journal, and the
// buddy ghost ships the snapshot over the interconnect before the rank
// may resume.
func (h *healthState) restoreRank(id int) {
	w := h.w
	if w.ranks[id].failed {
		return
	}
	bytes := 0
	if w.appRestore != nil {
		if b, _, ok := w.appRestore(id); ok {
			bytes = b
		}
	}
	d := w.net.InterLatency + sim.Duration(float64(bytes)*w.net.InterPerByte)
	w.eng.AfterBG(d, func() { h.reviveRank(id) })
}

// reviveRank thaws the recovered rank: the detector un-fails it, its
// beacons resume, deferred AMs drain, and the frozen process picks up
// exactly where the crash interrupted it — on restored state, so the
// recovered world stays bit-identical to its fault-free twin.
func (h *healthState) reviveRank(id int) {
	w := h.w
	r := w.ranks[id]
	if r.failed || !r.down {
		return
	}
	r.down = false
	if h.failed[id] {
		h.failed[id] = false
		h.nfailed--
	}
	h.lastSeen[id] = w.eng.Now()
	h.suspected[id], h.lastAck[id] = false, 0
	r.stats.AppRecoveries++
	if t := w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "revive", Rank: id, Peer: -1, At: w.eng.Now()})
	}
	r.engine.drainDeferred()
	w.eng.Thaw(r.proc)
}

// killRank is the ground-truth crash of a world rank at the current
// virtual time: its process never runs again, deferred AMs are
// discarded, and open collectives are re-examined so survivors are not
// held hostage by a corpse.
func (w *World) killRank(id int) {
	if id < 0 || id >= len(w.ranks) {
		return
	}
	r := w.ranks[id]
	if r.failed {
		return
	}
	r.failed = true
	w.failedCount++
	if r.proc != nil {
		w.eng.Kill(r.proc)
	}
	r.engine.release()
	if t := w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "crash", Rank: id, Peer: -1, At: w.eng.Now()})
	}
	for _, g := range w.comms {
		g.reapFailed()
	}
}

// crashAppRank is the ground-truth recoverable crash of an application
// rank: the process freezes mid-flight, its beacons stop, and nothing
// is torn down — survivors block at collectives exactly as real MPI
// ranks would, until the detector confirms the death and the recovery
// pipeline (agreement → respawn → restore → thaw) brings it back.
func (w *World) crashAppRank(id int) {
	if id < 0 || id >= len(w.ranks) {
		return
	}
	r := w.ranks[id]
	if r.failed || r.down || r.proc == nil || r.proc.Done() {
		return
	}
	if !w.healthTracked(id) {
		// Nobody is watching: the death would never be confirmed and no
		// recovery could start, wedging the survivors forever. Model the
		// crash as happening before MPI initialization completed — the
		// launcher restarts the process invisibly.
		return
	}
	r.down = true
	w.eng.Freeze(r.proc)
	if t := w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "appcrash", Rank: id, Peer: -1, At: w.eng.Now()})
	}
}

// stallRank freezes the rank's progress engine until now+d.
func (w *World) stallRank(id int, d sim.Duration) {
	if id < 0 || id >= len(w.ranks) {
		return
	}
	r := w.ranks[id]
	if r.failed {
		return
	}
	until := w.eng.Now().Add(d)
	if until > r.stalledUntil {
		r.stalledUntil = until
	}
	if t := w.tracer; t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "stall", Rank: id, Peer: -1, At: w.eng.Now()})
	}
}

// scheduleFaults arms the plan's crashes and stalls as background
// events. Called by Launch.
func (w *World) scheduleFaults() {
	if w.inj == nil {
		return
	}
	plan := w.inj.Plan()
	for _, c := range plan.Crashes {
		c := c
		w.eng.AtBG(c.At, func() { w.killRank(c.Rank) })
	}
	for _, s := range plan.Stalls {
		s := s
		w.eng.AtBG(s.At, func() { w.stallRank(s.Rank, s.Duration) })
	}
	for _, c := range plan.AppCrashes {
		c := c
		w.eng.AtBG(c.At, func() { w.crashAppRank(c.Rank) })
	}
}
