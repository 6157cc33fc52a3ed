package mpi

import (
	"bytes"
	"testing"

	"repro/internal/fault"
)

// Result bytes of get / get-accumulate / fetch-and-op / compare-and-swap
// are written into the origin's buffer when the op applies at the
// target; the ack carries the completion only. These tests byte-check
// every kind on every transport that carries the ack: the serial engine,
// the shard mailboxes, and the reliable transport with acks dropped.

// resultPathWorkload has rank 0 read and update rank 1's window — twelve
// doubles 1..12 — with every result-returning kind, rounds times over,
// reporting each wrong byte through fail.
func resultPathWorkload(rounds int, fail func(format string, args ...interface{})) func(r *Rank) {
	return func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 12*8, nil)
		init := make([]float64, 12)
		for i := range init {
			init[i] = float64(i + 1)
		}
		copy(buf, PutFloat64s(init))
		c.Barrier()
		if r.Rank() == 0 {
			expect := func(what string, got []byte, want ...float64) {
				if !bytes.Equal(got, PutFloat64s(want)) {
					fail("%s: got %v, want %v", what, GetFloat64s(got), want)
				}
			}
			win.LockAll(AssertNone)
			for i := 0; i < rounds; i++ {
				// Elements 4 and 5 gain 5 a round (see below); 8 flips sign.
				grown := float64(5 * i)
				sign := float64(1 - 2*(i%2))

				contig := make([]byte, 3*8)
				win.Get(contig, 1, 0, TypeOf(Float64, 3))
				vec := make([]byte, 4*8)
				win.Get(vec, 1, 6*8, Vector(Float64, 2, 2, 4)) // elements 6,7,10,11
				short := bytes.Repeat([]byte{0xEE}, 12)
				win.Get(short[:8], 1, 8, TypeOf(Float64, 3)) // room for one element of three
				rbuf := make([]byte, 2*8)
				req := win.RGet(rbuf, 1, 2*8, TypeOf(Float64, 2))
				// src aliases result: the operand was snapshotted at issue.
				both := PutFloat64s([]float64{5, 6})
				win.GetAccumulate(both, both, 1, 4*8, TypeOf(Float64, 2), OpSum)
				fetched := make([]byte, 8)
				win.FetchAndOp(PutFloat64s([]float64{-1}), fetched, 1, 5*8, Float64, OpSum)
				swapped, kept := make([]byte, 8), make([]byte, 8)
				win.CompareAndSwap(PutFloat64s([]float64{9 * sign}), PutFloat64s([]float64{-9 * sign}), swapped, 1, 8*8, Int64)
				win.CompareAndSwap(PutInt64(0), PutInt64(0), kept, 1, 9*8, Int64)

				req.Wait()
				expect("RGet", rbuf, 3, 4)
				win.Flush(1)
				expect("Get contiguous", contig, 1, 2, 3)
				expect("Get vector", vec, 7, 8, 11, 12)
				expect("Get into a short buffer", short[:8], 2)
				if !bytes.Equal(short[8:], []byte{0xEE, 0xEE, 0xEE, 0xEE}) {
					fail("Get wrote past its 8-byte result buffer: %x", short)
				}
				expect("GetAccumulate with src aliasing result", both, 5+grown, 6+grown)
				expect("FetchAndOp", fetched, 12+grown)
				expect("CompareAndSwap (match)", swapped, 9*sign)
				expect("CompareAndSwap (no match)", kept, 10)
			}
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 {
			want := append([]float64(nil), init...)
			want[4] += float64(5 * rounds)
			want[5] += float64(5 * rounds)
			if rounds%2 == 1 {
				want[8] = -9
			}
			if !bytes.Equal(buf, PutFloat64s(want)) {
				fail("target window: got %v, want %v", GetFloat64s(buf), want)
			}
		}
		win.Free()
	}
}

func TestResultsLandAtApply(t *testing.T) {
	twoNodes := func() Config { return testConfig(2, 1) }
	sharded := twoNodes()
	sharded.Shards = 2
	lossy := twoNodes()
	lossy.Fault = &fault.Plan{Seed: 3, DropRate: 0.25}
	for _, tc := range []struct {
		name   string
		cfg    Config
		rounds int
		after  func(t *testing.T, w *World)
	}{
		{"serial", twoNodes(), 3, nil},
		{"one node", testConfig(2, 2), 3, nil},
		{"cross-shard", sharded, 3, func(t *testing.T, w *World) {
			if !w.Sharded() || w.ShardCount() != 2 {
				t.Fatalf("world did not run on two shards (sharded=%v, shards=%d)", w.Sharded(), w.ShardCount())
			}
		}},
		{"dropped acks", lossy, 40, func(t *testing.T, w *World) {
			// With no duplication in the plan, a suppressed duplicate is a
			// retransmission of a packet the target had already accepted:
			// its ack was the transmission lost.
			s := w.Summary()
			if s.FaultDrops == 0 || s.DupsSuppressed == 0 || s.Abandoned != 0 {
				t.Fatalf("plan did not exercise the lost-ack path: %v", s)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustRun(t, tc.cfg, resultPathWorkload(tc.rounds, t.Errorf))
			if tc.after != nil {
				tc.after(t, w)
			}
			if n := w.PoolOutstanding(); n != 0 {
				t.Errorf("%d message-path buffers outstanding after the run", n)
			}
		})
	}
}
