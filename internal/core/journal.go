package core

import (
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Sequencer succession (fault worlds only).
//
// Casper's one global command order normally comes from a single ghost:
// users send window-create/free/shutdown commands to the sequencer (the
// globally lowest ghost rank), which forwards them to every other ghost.
// That made the sequencer a single point of failure. The cmdJournal
// removes it:
//
//   - Every command a user sends is first appended to a world-global
//     replayable log (one simulated address space, so the log plays the
//     role a replicated command log would on real hardware). The wire
//     message to the acting sequencer is thereafter only a *doorbell*:
//     each received command message makes a ghost execute exactly one
//     logged entry, so lost, duplicated, or stale doorbells are harmless.
//   - The acting sequencer assigns each entry its global index in
//     arrival order and forwards the entry's bytes to every other ghost
//     — byte-for-byte and in the same iteration order as the legacy
//     path, so fault worlds without a sequencer crash are bit-identical
//     to the seed behavior.
//   - When the failure detector *confirms* the sequencer dead (which
//     implies ground-truth death, see internal/mpi/health.go), a death
//     hook deterministically elects the next-lowest surviving ghost,
//     orders any not-yet-ordered entries in log-append order, and hands
//     the role over by injecting a cmdSucceed doorbell. The successor
//     retransmits doorbells for every ordered entry a surviving ghost
//     has not yet executed, then drains its own backlog. Repeated
//     successions (the successor dying mid-takeover) just repeat the
//     same procedure.
type cmdJournal struct {
	w       *mpi.World
	comm    *mpi.Comm // any world-comm handle, for engine-context injection
	ghosts  []int     // every ghost world rank, ascending
	seqRank int       // acting sequencer; -1 once every ghost is confirmed dead

	entries []*cmdEntry         // log-append order (user send order)
	pending map[int][]*cmdEntry // origin -> FIFO of entries not yet ordered
	ordered []*cmdEntry         // global command order
	next    map[int]int         // ghost -> index into ordered of next entry to run
	exited  map[int]bool        // ghosts that left their service loop (shutdown)
}

// cmdEntry is one logged command.
type cmdEntry struct {
	data   []byte
	origin int          // world rank of the sending user
	idx    int          // global order index; -1 until ordered
	done   map[int]bool // ghost world rank -> executed (or executing)
}

// journalFor returns the world-global journal singleton, creating it on
// first use and registering its succession death hook. Only called in
// fault worlds.
func journalFor(r *mpi.Rank, d *deployment) *cmdJournal {
	v := r.World().SharedState("casper.cmdjournal", func() interface{} {
		j := &cmdJournal{
			w:       r.World(),
			comm:    d.world,
			ghosts:  d.ghosts,
			seqRank: d.sequencer(),
			pending: map[int][]*cmdEntry{},
			next:    map[int]int{},
			exited:  map[int]bool{},
		}
		r.World().AddDeathHook(j.onDeath)
		return j
	})
	return v.(*cmdJournal)
}

// sendCmd delivers one command toward the ghosts. Without a journal
// (fault-free worlds) this is exactly the legacy send to the static
// sequencer. With one, the command is logged first and the send is a
// doorbell to the acting sequencer — skipped entirely once every ghost
// is confirmed dead (collectives already complete over survivors).
func (d *deployment) sendCmd(data []byte) {
	j := d.journal
	if j == nil {
		d.world.Send(d.sequencer(), tagGhostCmd, data)
		return
	}
	e := &cmdEntry{
		data:   append([]byte(nil), data...),
		origin: d.world.Rank(),
		idx:    -1,
		done:   map[int]bool{},
	}
	j.entries = append(j.entries, e)
	j.pending[e.origin] = append(j.pending[e.origin], e)
	if j.seqRank >= 0 {
		d.world.Send(j.seqRank, tagGhostCmd, data)
	}
}

// popPending removes and returns the oldest unordered entry from one
// origin, or nil when the doorbell is stale (already ordered by a
// succession, or a duplicate).
func (j *cmdJournal) popPending(origin int) *cmdEntry {
	q := j.pending[origin]
	if len(q) == 0 {
		return nil
	}
	j.pending[origin] = q[1:]
	return q[0]
}

// order assigns the next global index to an entry.
func (j *cmdJournal) order(e *cmdEntry) {
	e.idx = len(j.ordered)
	j.ordered = append(j.ordered, e)
}

// take returns the ghost's next ordered-but-unexecuted entry, or nil.
func (j *cmdJournal) take(ghost int) *cmdEntry {
	for j.next[ghost] < len(j.ordered) {
		e := j.ordered[j.next[ghost]]
		if e.done[ghost] {
			j.next[ghost]++
			continue
		}
		// Marked before execution: a succession during the (collective)
		// execution must not retransmit a doorbell for work in progress.
		e.done[ghost] = true
		j.next[ghost]++
		return e
	}
	return nil
}

// onDeath is the succession death hook, run in engine context on every
// confirmed ghost death. Non-sequencer deaths need nothing from the
// journal; the command path already tolerates them.
func (j *cmdJournal) onDeath(dead int) {
	if dead != j.seqRank {
		return
	}
	succ := -1
	for _, g := range j.ghosts {
		if !j.w.HealthFailed(g) && !j.exited[g] {
			succ = g
			break
		}
	}
	j.seqRank = succ
	if succ < 0 {
		return
	}
	// Order everything still unordered, in log-append order: the dead
	// sequencer can no longer arbitrate, and append order is the one
	// deterministic order every rank agrees on. Doorbells in flight to
	// the corpse are swallowed; the successor raises its own.
	for _, e := range j.entries {
		if e.idx < 0 {
			j.order(e)
		}
	}
	j.pending = map[int][]*cmdEntry{}
	if t := j.w.Tracer(); t.Enabled() {
		t.RecordFault(trace.Fault{Kind: "succession", Rank: succ, Peer: dead, At: j.w.Engine().Now()})
	}
	j.comm.InjectLocal(dead, succ, tagGhostCmd, []byte{cmdSucceed})
}

// takeover runs on the successor ghost when its cmdSucceed doorbell
// arrives: retransmit doorbells for every ordered entry a surviving,
// still-serving ghost has not executed, then drain the own backlog.
// Reports whether the ghost loop should exit (shutdown was replayed).
func (j *cmdJournal) takeover(r *mpi.Rank, d *deployment, wins map[string][]*ghostWinSet) bool {
	me := r.Rank()
	j.w.NoteSuccession(me)
	for _, e := range j.ordered {
		for _, g := range j.ghosts {
			if g == me || e.done[g] || j.exited[g] || j.w.HealthFailed(g) {
				continue
			}
			d.world.Send(g, tagGhostCmd, e.data)
			j.w.NoteCmdResend(me)
		}
	}
	for {
		e := j.take(me)
		if e == nil {
			return false
		}
		if handleGhostCmd(r, d, wins, e.data) {
			return true
		}
	}
}
