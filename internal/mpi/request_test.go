package mpi

import (
	"testing"

	"repro/internal/sim"
)

func TestIsendIrecvRoundTrip(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			q := c.Isend(1, 7, []byte("async"))
			if !q.Done() {
				t.Error("eager isend should complete at issue")
			}
			q.Wait()
		} else {
			q := c.Irecv(0, 7)
			data, st := q.Wait()
			if string(data) != "async" || st.Source != 0 || st.Tag != 7 {
				t.Errorf("got %q %+v", data, st)
			}
		}
	})
}

func TestIrecvMatchesAlreadyArrived(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Send(1, 3, []byte("early"))
			c.Send(1, 4, nil) // ordering fence
		} else {
			c.Recv(0, 4) // guarantees tag-3 message already arrived
			q := c.Irecv(0, 3)
			if !q.Done() {
				t.Error("irecv of arrived message should be complete")
			}
			data, _, ok := q.Test()
			if !ok || string(data) != "early" {
				t.Errorf("Test = %q, %v", data, ok)
			}
		}
	})
}

func TestRequestTestNonblocking(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 1 {
			q := c.Irecv(0, 9)
			if _, _, ok := q.Test(); ok {
				t.Error("Test true before send")
			}
			c.Send(0, 1, nil) // tell rank 0 to send
			data, _ := q.Wait()
			if string(data) != "x" {
				t.Errorf("got %q", data)
			}
		} else {
			c.Recv(1, 1)
			c.Send(1, 9, []byte("x"))
		}
	})
}

func TestIrecvDoesNotProvideProgress(t *testing.T) {
	// A pending Irecv leaves the rank outside MPI: software RMA to it
	// still stalls. This distinguishes posting a receive from being
	// parked inside one.
	var originTime sim.Duration
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			start := r.Now()
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			win.UnlockAll()
			originTime = r.Now().Sub(start)
			c.Send(1, 5, nil)
		} else {
			q := c.Irecv(0, 5)
			r.Compute(200 * sim.Microsecond) // outside MPI despite posted recv
			q.Wait()
		}
		c.Barrier()
	})
	if originTime < 150*sim.Microsecond {
		t.Fatalf("origin finished in %v; a posted Irecv must not give progress", originTime)
	}
}

func TestWaitAll(t *testing.T) {
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			q1 := c.Irecv(1, 1)
			q2 := c.Irecv(2, 2)
			WaitAll(q1, q2)
			if !q1.Done() || !q2.Done() {
				t.Error("WaitAll left requests pending")
			}
		} else {
			r.Compute(sim.Duration(r.Rank()) * 10 * sim.Microsecond)
			c.Send(0, r.Rank(), []byte{byte(r.Rank())})
		}
	})
}

func TestProbeThenRecv(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			r.Compute(30 * sim.Microsecond)
			c.Send(1, 42, []byte("probed"))
		} else {
			st := c.Probe(AnySource, AnyTag)
			if st.Source != 0 || st.Tag != 42 {
				t.Errorf("probe status %+v", st)
			}
			// Message must still be receivable.
			data, _ := c.Recv(st.Source, st.Tag)
			if string(data) != "probed" {
				t.Errorf("got %q", data)
			}
		}
	})
}

func TestIprobe(t *testing.T) {
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 1 {
			if _, ok := c.Iprobe(0, 1); ok {
				t.Error("Iprobe true before send")
			}
			c.Send(0, 2, nil)
			st := c.Probe(0, 1)
			if got, ok := c.Iprobe(0, 1); !ok || got != st {
				t.Error("Iprobe after arrival disagrees with Probe")
			}
			c.Recv(0, 1)
		} else {
			c.Recv(1, 2)
			c.Send(1, 1, []byte("z"))
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	got := make([]string, 2)
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		other := 1 - r.Rank()
		data, _ := c.Sendrecv(other, 5, []byte{byte('a' + r.Rank())}, other, 5)
		got[r.Rank()] = string(data)
	})
	if got[0] != "b" || got[1] != "a" {
		t.Fatalf("exchange got %v", got)
	}
}

func TestCollectivesExtended(t *testing.T) {
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		// Reduce to root 2.
		red := c.ReduceFloat64(2, []float64{float64(r.Rank())}, OpSum)
		if r.Rank() == 2 {
			if red[0] != 6 {
				t.Errorf("reduce = %v", red)
			}
		} else if red != nil {
			t.Error("non-root got reduce data")
		}
		// Allgather.
		ag := c.AllgatherFloat64([]float64{float64(r.Rank() * 2)})
		for i := 0; i < 4; i++ {
			if ag[i] != float64(2*i) {
				t.Errorf("allgather = %v", ag)
			}
		}
		// Alltoall: rank r sends value 10*r+i to rank i.
		send := make([]float64, 4)
		for i := range send {
			send[i] = float64(10*r.Rank() + i)
		}
		recv := c.AlltoallFloat64(send)
		for i := 0; i < 4; i++ {
			if recv[i] != float64(10*i+r.Rank()) {
				t.Errorf("alltoall = %v", recv)
			}
		}
	})
}

func TestAlltoallWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		r.CommWorld().AlltoallFloat64([]float64{1, 2, 3})
	})
}
