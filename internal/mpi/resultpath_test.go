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

// scratchWorkload is the scratch-ownership rule of mpi.Window from the
// origin's side: every buffer handed to an RMA call is the caller's again
// the moment the call returns, because issue snapshots the payload — into
// the op header up to 16 bytes, into a pooled buffer beyond. Rank 0 runs
// every operand-carrying kind at every payload size from 1 to 64 bytes
// against rank 1's window and scribbles over each operand right after
// the call; a byte-for-byte model of the window says what must be there.
func scratchWorkload(fail func(format string, args ...interface{})) func(r *Rank) {
	const span = 64
	return func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 4*span, nil)
		c.Barrier()
		if r.Rank() == 0 {
			var model [4 * span]byte
			scribble := func(bufs ...[]byte) {
				for _, b := range bufs {
					for i := range b {
						b[i] = 0xA5
					}
				}
			}
			operand := func(n, salt int) []byte {
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(salt + 7*i + n)
				}
				return b
			}
			win.LockAll(AssertNone)
			for n := 1; n <= span; n++ {
				dt := TypeOf(Byte, n)

				src := operand(n, 1)
				copy(model[:n], src)
				win.Put(src, 1, 0, dt)
				scribble(src)

				src = operand(n, 2)
				for i, v := range src {
					model[span+i] += v
				}
				win.Accumulate(src, 1, span, dt, OpSum)
				scribble(src)

				src = operand(n, 3)
				old := append([]byte(nil), model[2*span:2*span+n]...)
				for i, v := range src {
					model[2*span+i] ^= v
				}
				fetched := make([]byte, n)
				win.GetAccumulate(src, fetched, 1, 2*span, dt, OpBXor)
				scribble(src)

				// Scalars: one of each width per round, at an aligned slot.
				b := []BasicType{Byte, Int32, Int64}[n%3]
				es := b.Size()
				at := 3*span + 8*(n%8)
				src = operand(es, 4)
				fold := append([]byte(nil), model[at:at+es]...)
				for i, v := range src {
					model[at+i] |= v
				}
				fao := make([]byte, es)
				win.FetchAndOp(src, fao, 1, at, b, OpBOr)
				scribble(src)

				// CAS twice with the value the slot holds now as compare value:
				// the first swap lands, the second finds what the first left.
				held := append([]byte(nil), model[at:at+es]...)
				first, second := operand(es, 5), operand(es, 6)
				copy(model[at:], first)
				if bytes.Equal(first, held) {
					copy(model[at:], second)
				}
				cas1, cas2 := make([]byte, es), make([]byte, es)
				cmp, swap := append([]byte(nil), held...), append([]byte(nil), first...)
				win.CompareAndSwap(cmp, swap, cas1, 1, at, b)
				scribble(cmp, swap)
				cmp, swap = append([]byte(nil), held...), append([]byte(nil), second...)
				win.CompareAndSwap(cmp, swap, cas2, 1, at, b)
				scribble(cmp, swap)

				win.Flush(1)
				if !bytes.Equal(fetched, old) {
					fail("n=%d: GetAccumulate fetched %x, want %x", n, fetched, old)
				}
				if !bytes.Equal(fao, fold) {
					fail("n=%d: FetchAndOp fetched %x, want %x", n, fao, fold)
				}
				if !bytes.Equal(cas1, held) || !bytes.Equal(cas2, first) {
					fail("n=%d: CompareAndSwap returned %x then %x, want %x then %x", n, cas1, cas2, held, first)
				}
				got := make([]byte, len(model))
				win.Get(got, 1, 0, TypeOf(Byte, len(model)))
				win.Flush(1)
				if !bytes.Equal(got, model[:]) {
					fail("n=%d: target window\n got %x\nwant %x", n, got, model)
				}
			}
			win.UnlockAll()
		}
		c.Barrier()
		win.Free()
	}
}

func TestOriginBuffersAreScratchAfterIssue(t *testing.T) {
	sharded := testConfig(2, 1)
	sharded.Shards = 2
	lossy := testConfig(2, 1)
	lossy.Fault = &fault.Plan{Seed: 3, DropRate: 0.25}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"serial", testConfig(2, 1)},
		{"two shards", sharded},
		{"25% drops", lossy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustRun(t, tc.cfg, scratchWorkload(t.Errorf))
			if tc.cfg.Shards > 0 && w.ShardCount() != 2 {
				t.Fatalf("world ran on %d shards, want 2", w.ShardCount())
			}
			if tc.cfg.Fault != nil && w.Summary().Retransmits == 0 {
				t.Fatal("the plan dropped nothing that had to be retransmitted")
			}
			if n := w.PoolOutstanding(); n != 0 {
				t.Errorf("%d message-path buffers outstanding after the run", n)
			}
		})
	}
}
