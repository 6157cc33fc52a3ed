package core

import "testing"

// TestJournalRunsWithoutFaultPlan: a world without a fault plan sends its
// commands through the command journal too. Two windows are created and
// freed and the ghosts shut down; every command is logged once and
// ordered, and every ghost ends past every entry, having executed it,
// with nothing left pending and no succession.
func TestJournalRunsWithoutFaultPlan(t *testing.T) {
	w := casperRun(t, casperConfig(12, 6), Config{NumGhosts: 2}, func(p *Process) {
		c := p.CommWorld()
		for i := 0; i < 2; i++ {
			win, _ := p.WinAllocate(c, 64, nil)
			c.Barrier()
			win.Free()
		}
	})
	if w.FaultsEnabled() {
		t.Fatal("the world has a fault plan")
	}
	j := w.SharedState("casper.cmdjournal", func() interface{} {
		t.Fatal("the world built no command journal")
		return nil
	}).(*cmdJournal)
	const commands = 2 + 2 + 1 // two creates, two frees, one shutdown
	if len(j.entries) != commands || len(j.ordered) != commands {
		t.Fatalf("%d commands logged, %d ordered, want %d", len(j.entries), len(j.ordered), commands)
	}
	if j.seqRank != j.ghosts[0] {
		t.Fatalf("acting sequencer %d, want the lowest ghost %d", j.seqRank, j.ghosts[0])
	}
	for origin, q := range j.pending {
		if len(q) != 0 {
			t.Errorf("origin %d: %d commands never ordered", origin, len(q))
		}
	}
	if len(j.ghosts) != 4 {
		t.Fatalf("%d ghosts, want 4", len(j.ghosts))
	}
	for _, g := range j.ghosts {
		if j.next[g] != commands {
			t.Errorf("ghost %d stopped at journal entry %d of %d", g, j.next[g], commands)
		}
		if !j.exited[g] {
			t.Errorf("ghost %d never left its service loop", g)
		}
		for i, e := range j.ordered {
			if !e.done[g] {
				t.Errorf("ghost %d never executed entry %d", g, i)
			}
		}
	}
}
