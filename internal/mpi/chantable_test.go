package mpi

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// chanOrderOutcome is what TestChannelTableKeepsTargetOrder compares of
// one run.
type chanOrderOutcome struct {
	form    int      // rank 0's table length after its ops: the comm size once dense
	unacked []int    // targets of the unacked-op edges World.Diagnose listed, in its order
	diag    []string // the whole graph
	woke    []int    // the targets whose lock the UnlockAll released, in the order it did
	ends    []sim.Time
	events  int64
}

// TestChannelTableKeepsTargetOrder: a handle that touches its targets in
// descending order still visits its channels in ascending target order.
// Rank 0 of a 2 x 8 world accumulates under lockall to targets on the
// other node, highest first: four of them, which its table holds as a
// list, or eight, which turn it dense in the middle of the epoch. Rank 1
// reads the wait-for graph while the ops are unacked; a FlushAll drains
// them; each target then waits for an exclusive lock on itself behind rank
// 0's, which rank 0's UnlockAll releases. The graph lists the unacked-op
// edges, and the targets wake, in ascending order, and everything — the
// graph, the wake order, every rank's end time and the events — reads the
// same as with a table dense from the start.
func TestChannelTableKeepsTargetOrder(t *testing.T) {
	cfg := Config{
		Machine: cluster.Machine{Nodes: 2, CoresPerNode: 24, NUMAPerNode: 1},
		N:       16, PPN: 8, Net: netmodel.CrayXC30(), Seed: 7,
	}
	run := func(touched []int, dense bool) chanOrderOutcome {
		o := chanOrderOutcome{ends: make([]sim.Time, cfg.N)}
		one := PutFloat64s([]float64{1})
		w := mustRun(t, cfg, func(r *Rank) {
			c := r.CommWorld()
			win, _ := r.WinAllocateRegion(c, 8)
			if dense && r.Rank() == 0 {
				win.chans = make([]*chanState, c.Size())
			}
			c.Barrier()
			switch me := r.Rank(); {
			case me == 0:
				win.LockAll(AssertNone)
				for _, tg := range touched {
					win.Accumulate(one, tg, 0, Scalar(Float64), OpSum)
				}
				win.FlushAll()
				r.Now() // settle: the table is engine-side state
				o.form = len(win.chans)
				c.Barrier()
				r.Compute(20 * sim.Microsecond)
				win.UnlockAll()
			case me == 1:
				r.Compute(4500 * sim.Nanosecond) // every op posted, none acked: 3.5-6 us
				o.diag = r.World().Diagnose()
				for _, line := range o.diag {
					var from, to int
					if strings.Contains(line, "unacked RMA op") {
						if _, err := fmt.Sscanf(strings.TrimSpace(line), "rank%d waits on rank%d:", &from, &to); err == nil && from == 0 {
							o.unacked = append(o.unacked, to)
						}
					}
				}
				c.Barrier()
			case slices.Contains(touched, me):
				c.Barrier()
				win.Lock(me, LockExclusive, AssertNone)
				win.Acquire(me)
				o.woke = append(o.woke, me)
				win.Unlock(me)
			default:
				c.Barrier()
			}
			c.Barrier()
			o.ends[r.Rank()] = r.Now()
		})
		o.events = w.EventsEager()
		w.Close()
		return o
	}
	for _, tc := range []struct {
		name    string
		touched []int
		form    int
	}{
		{"list", []int{14, 12, 10, 9}, 4},
		{"list-to-dense", []int{15, 14, 13, 12, 11, 10, 9, 8}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := run(tc.touched, false), run(tc.touched, true)
			ascending := slices.Sorted(slices.Values(tc.touched))
			if got.form != tc.form {
				t.Errorf("rank 0's table holds %d slots after %d targets, want %d", got.form, len(tc.touched), tc.form)
			}
			if !reflect.DeepEqual(got.unacked, ascending) {
				t.Errorf("unacked-op edges on targets %v, want %v:\n%s", got.unacked, ascending, strings.Join(got.diag, "\n"))
			}
			if !reflect.DeepEqual(got.woke, ascending) {
				t.Errorf("UnlockAll released targets %v, want %v", got.woke, ascending)
			}
			if !reflect.DeepEqual(got.diag, want.diag) || !reflect.DeepEqual(got.woke, want.woke) ||
				!reflect.DeepEqual(got.ends, want.ends) || got.events != want.events {
				t.Errorf("differs from a dense table:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
