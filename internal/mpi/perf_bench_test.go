package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Go micro-benchmarks for the message-path hot spots (see EXPERIMENTS.md,
// "Performance methodology"). ns/op and allocs/op here are wall-clock
// costs of simulating, not simulated time.

func benchConfig(n, ppn int) Config {
	return Config{
		Machine: cluster.Machine{Nodes: (n + ppn - 1) / ppn, CoresPerNode: 24, NUMAPerNode: 2},
		N:       n,
		PPN:     ppn,
		Net:     netmodel.CrayXC30(),
		Seed:    1,
	}
}

// BenchmarkPingPong runs a two-rank put/flush ping-pong over a full
// world per iteration batch: the per-op figure includes issue, wire,
// target service, ack, and flush — the whole simulated message path.
func BenchmarkPingPong(b *testing.B) {
	for _, size := range []int{8, 4096} {
		b.Run(fmt.Sprintf("put%d", size), func(b *testing.B) {
			b.ReportAllocs()
			const batch = 256
			rounds := (b.N + batch - 1) / batch
			buf := make([]byte, size)
			dt := TypeOf(Byte, size)
			for r := 0; r < rounds; r++ {
				_, err := Run(benchConfig(2, 1), func(rk *Rank) {
					c := rk.CommWorld()
					win, _ := rk.WinAllocate(c, size, nil)
					c.Barrier()
					if rk.Rank() == 0 {
						win.Lock(1, LockShared, AssertNone)
						for i := 0; i < batch; i++ {
							win.Put(buf, 1, 0, dt)
							win.Flush(1)
						}
						win.Unlock(1)
					}
					c.Barrier()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*rounds)/float64(b.N), "ops/iter")
		})
	}
}

// BenchmarkAccumulate is BenchmarkPingPong for the software-AM path:
// accumulates always need target-side service, so this exercises the
// progress engine, the serial server, and the payload pooling.
func BenchmarkAccumulate(b *testing.B) {
	b.ReportAllocs()
	const batch = 256
	rounds := (b.N + batch - 1) / batch
	one := PutFloat64s([]float64{1})
	for r := 0; r < rounds; r++ {
		_, err := Run(benchConfig(2, 1), func(rk *Rank) {
			c := rk.CommWorld()
			win, _ := rk.WinAllocate(c, 64, nil)
			c.Barrier()
			if rk.Rank() == 0 {
				win.Lock(1, LockShared, AssertNone)
				for i := 0; i < batch; i++ {
					win.Accumulate(one, 1, 0, Scalar(Float64), OpSum)
				}
				win.Flush(1)
				win.Unlock(1)
			}
			c.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockEpoch is the host cost of one passive-target epoch on a
// busy engine (four origins in step toward one target): "lazy" opens and
// closes epochs on a target it never uses — two MPI calls of pure
// bookkeeping, no message, no allocation — and "eager" forces the
// acquisition (Acquire), paying the request/grant/release messages and
// the channel state.
func BenchmarkLockEpoch(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			const origins = 4
			epochs := (b.N + origins - 1) / origins
			_, err := Run(benchConfig(origins+1, origins+1), func(rk *Rank) {
				c := rk.CommWorld()
				win, _ := rk.WinAllocateRegion(c, 8, nil)
				c.Barrier()
				if rk.Rank() != 0 {
					for i := 0; i < epochs; i++ {
						win.Lock(0, LockShared, AssertNone)
						if eager {
							win.Acquire(0)
						}
						win.Unlock(0)
					}
				}
				c.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDatatypePack measures the apply-path datatype engine — block
// kernels over contiguous, strided and indexed layouts, the Get gather —
// and the bulk float64 codecs GA patches run on either side of it.
func BenchmarkDatatypePack(b *testing.B) {
	const elems = 512
	target := make([]byte, elems*8*2)
	src := make([]byte, elems*8)
	cases := []struct {
		name string
		dt   Datatype
		op   Op
	}{
		{"contig-replace", TypeOf(Float64, elems), OpReplace},
		{"vector-replace", Vector(Float64, elems/4, 4, 8), OpReplace},
		{"contig-sum", TypeOf(Float64, elems), OpSum},
		{"vector-sum", Vector(Float64, elems/4, 4, 8), OpSum},
		{"contig-sum/int64", TypeOf(Int64, elems), OpSum},
		{"indexed-replace", Indexed(Float64, 2, evenOffsets(elems/2)), OpReplace},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(tc.dt.Size()))
			for i := 0; i < b.N; i++ {
				accumulate(tc.op, tc.dt, target, 0, src)
			}
		})
	}
	b.Run("gather-contig", func(b *testing.B) {
		b.ReportAllocs()
		dt := TypeOf(Float64, elems)
		b.SetBytes(int64(dt.Size()))
		for i := 0; i < b.N; i++ {
			gatherInto(src, dt, target, 0)
		}
	})
	vals := make([]float64, elems)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			EncodeFloat64s(src, vals, 0.5)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			DecodeFloat64s(vals, src)
		}
	})
}

func evenOffsets(blocks int) []int {
	out := make([]int, blocks)
	for i := range out {
		out[i] = i * 4
	}
	return out
}

// BenchmarkBackloggedTarget is one world per iteration in which 40
// origins each send 1024 accumulates to rank 0, far faster than it
// services them: the steady state of the paper's all-to-all curves, with
// tens of thousands of operations in flight on wire chains and in one
// service backlog. B/op and allocs/op are what that backlog costs the
// allocator (one header per op in flight at the peak); ns/AM divides the
// world's host time by the operations.
func BenchmarkBackloggedTarget(b *testing.B) {
	const origins, ops = 40, 1024
	b.Run(fmt.Sprintf("origins=%d/ops=%d", origins, ops), func(b *testing.B) {
		b.ReportAllocs()
		one := PutFloat64s([]float64{1})
		for i := 0; i < b.N; i++ {
			w, err := Run(benchConfig(origins+1, 24), func(rk *Rank) {
				c := rk.CommWorld()
				win, _ := rk.WinAllocate(c, 8, nil)
				c.Barrier()
				if rk.Rank() != 0 {
					win.Lock(0, LockShared, AssertNone)
					for i := 0; i < ops; i++ {
						win.Accumulate(one, 0, 0, Scalar(Float64), OpSum)
					}
					win.Unlock(0)
				}
				c.Barrier()
				win.Free()
			})
			if err != nil {
				b.Fatal(err)
			}
			if got := w.RankByID(0).Stats().SoftwareAMs; got != origins*ops {
				b.Fatalf("target serviced %d AMs, want %d", got, origins*ops)
			}
			w.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(origins*ops), "ns/AM")
	})
}

// BenchmarkReliableAcc is BenchmarkAccumulate with the reliable transport
// under it — the in-tree twin of the observatory's
// mpi.reliable_acc_ns_per_op: "plain" has no fault plan, "zero-rate" a
// plan that never fires (every op still travels as a sequence-numbered
// packet with a retransmission timer), "drop5" loses one transmission in
// twenty. The issue loop flushes every 64 operations, as the probe does.
// allocs/op is per operation: one object under a plan (header, extension
// and first packet together), none without.
func BenchmarkReliableAcc(b *testing.B) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"plain", nil},
		{"zero-rate", &fault.Plan{Seed: 1}},
		{"drop5", &fault.Plan{Seed: 1, DropRate: 0.05}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			one := PutFloat64s([]float64{1})
			cfg := benchConfig(2, 1)
			if tc.plan != nil {
				plan := *tc.plan
				cfg.Fault = &plan
			}
			_, err := Run(cfg, func(rk *Rank) {
				c := rk.CommWorld()
				win, _ := rk.WinAllocate(c, 64, nil)
				c.Barrier()
				if rk.Rank() == 0 {
					win.LockAll(AssertNone)
					for i := 0; i < b.N; i++ {
						win.Accumulate(one, 1, 0, Scalar(Float64), OpSum)
						if i%64 == 63 {
							win.Flush(1)
						}
					}
					win.UnlockAll()
				}
				c.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkValidatorRecordApply is the validator's cost per applied
// operation with the ring full, on the three shapes that bound it:
// "disjoint" cycles through 64 separate words (no byte range overlaps the
// new one within reach), "hot-word" hits one word every time (every ring
// entry overlaps in bytes, none in time — the observatory's
// mpi.validate_acc_ns_per_op world), "wrapped" interleaves four origins on
// eight words so the scan straddles the ring's wrap point with applies
// that do overlap in time, on one server.
func BenchmarkValidatorRecordApply(b *testing.B) {
	for _, tc := range []struct {
		name             string
		words, origins   int
		duration, stride sim.Time
	}{
		{"disjoint", 64, 1, 10, 10},
		{"hot-word", 1, 1, 10, 10},
		{"wrapped", 8, 4, 25, 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			v := newValidator()
			seg := &segment{id: 1, data: make([]byte, 8*tc.words)}
			reg := Region{seg: seg, n: len(seg.data)}
			g := &winGlobal{comm: &commGlobal{ranks: []int{0, 1, 2, 3}}, w: &World{validator: v}}
			ops := make([]*rmaOp, tc.origins)
			for i := range ops {
				ops[i] = &rmaOp{win: g, kind: KindAcc, origin: int32(i), dt: Scalar(Float64), owner: 5, ext: &opExt{}}
			}
			var now sim.Time
			apply := func(i int) {
				op := ops[i%tc.origins]
				now += tc.stride
				op.ext.seq++
				op.ext.svcStart, op.link.At = now-tc.duration, now
				v.recordApply(op, reg, (i%tc.words)*8, 5)
			}
			for i := 0; i < 2*v.ringSize; i++ {
				apply(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(i)
			}
			if !v.Ok() {
				b.Fatalf("violations: %v", v.Violations()[0])
			}
		})
	}
}
