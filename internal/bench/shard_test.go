package bench

// TestShardedIdentical* are the identity gate for the sharded engine
// (mpi.Config.Shards): the same experiment, rendered to the same bytes,
// at every shard worker count. The fig5a test covers the scaling family
// (the experiments the option exists for), the stencil test covers a
// Casper world driven directly, and the faultchaos test proves the
// option is an honest no-op where fault plans force the serial
// fallback. All three run under -race in CI — the sharded runs are the
// real multi-goroutine execution, not a simulation of one.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stencil"
)

func shardCounts() []int { return []int{1, 2, 4, 8} }

func TestShardedIdenticalFig5a(t *testing.T) {
	e, ok := Get("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	o := Options{Scale: 0.12, Seed: 42, Parallel: 1}
	base := e.Run(o).CSV()
	for _, s := range shardCounts() {
		so := o
		so.Shards = s
		if got := e.Run(so).CSV(); got != base {
			t.Errorf("fig5a CSV at -shards %d differs from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
				s, base, s, got)
		}
	}
}

// TestShardedIdenticalStencil drives a Casper stencil world directly —
// the chaos world shape, 2 nodes x (2 users + 2 ghosts) — comparing
// the per-rank result bytes and the full world summary (end time
// included) across engines.
func TestShardedIdenticalStencil(t *testing.T) {
	run := func(shards int) (uint64, mpi.WorldSummary) {
		cfg := worldConfig(netmodel.CrayXC30(), chaosN, chaosPPN, mpi.ProgressNone, false, 42)
		cfg.Shards = shards
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 0 && !w.Sharded() {
			t.Fatalf("shards=%d: world fell back to the serial engine", shards)
		}
		data := make([][]byte, chaosUsers)
		w.Launch(func(r *mpi.Rank) {
			p, ghost := core.Init(r, core.Config{NumGhosts: chaosGhosts})
			if ghost {
				return
			}
			res := stencil.Run(p, stencil.Params{N: 18, Iterations: 60})
			data[p.Rank()] = mpi.PutFloat64s(res.Local)
			p.Finalize()
		})
		if err := w.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return chaosSig(data), w.Summary()
	}
	sig, sum := run(0)
	sum.PeakQueueResidency = 0
	for _, s := range shardCounts() {
		gsig, gsum := run(s)
		// Sharding splits the event working set across engines, so the
		// scheduler-occupancy gauge is the one field allowed to differ.
		gsum.PeakQueueResidency = 0
		if gsig != sig {
			t.Errorf("stencil data sig at shards=%d: %016x want %016x", s, gsig, sig)
		}
		if gsum != sum {
			t.Errorf("stencil summary at shards=%d:\n got %v\nwant %v", s, gsum, sum)
		}
	}
}

// TestShardedIdenticalFaultChaos runs a seed subset of the chaos sweep
// with Shards set. Chaos worlds always set Config.Validate (and most
// carry fault plans), so every one of them must silently fall back to
// the serial engine — the sweep's rendered output and pass/fail flag
// must not move at any shard count.
func TestShardedIdenticalFaultChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	e, ok := Get("faultchaos")
	if !ok {
		t.Fatal("faultchaos not registered")
	}
	o := Options{Scale: 0.04, Seed: 42, Parallel: 1} // 8-seed subset
	base := e.Run(o)
	if base.Failed {
		t.Fatal("serial chaos subset failed; fix that before comparing engines")
	}
	for _, s := range shardCounts() {
		so := o
		so.Shards = s
		got := e.Run(so)
		if got.Failed {
			t.Errorf("chaos subset failed at shards=%d", s)
		}
		if got.CSV() != base.CSV() {
			t.Errorf("chaos CSV at shards=%d differs from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
				s, base.CSV(), s, got.CSV())
		}
	}
}
