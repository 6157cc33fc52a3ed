package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// pairsOf builds pairs of one metric from the ref and change samples.
func pairsOf(name string, ref, nw []float64) []pair {
	var ps []pair
	for i := range ref {
		ps = append(ps, pair{RefFirst: i%2 == 0,
			Ref: map[string]float64{name: ref[i]}, New: map[string]float64{name: nw[i]}})
	}
	return ps
}

// TestQuartilesMatchTheDriver: the quartiles are Python's
// statistics.quantiles(v, n=4), the exclusive method the driver uses.
func TestQuartilesMatchTheDriver(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want spread
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, spread{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, spread{1.5, 3, 4.5}},
		{[]float64{1, 2}, spread{1, 1.5, 2}},
		{[]float64{4}, spread{4, 4, 4}},
	} {
		if got := quartiles(tc.v); got != tc.want {
			t.Errorf("quartiles(%v) = %+v, want %+v", tc.v, got, tc.want)
		}
	}
}

// TestSummaryGainRule: a gain needs the change to win at least nine of ten
// pairs, ties counting for neither side, and its median to beat the ref's
// by more than the distance between the ref's quartiles.
func TestSummaryGainRule(t *testing.T) {
	ref := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109} // Q1 101.75, Q3 107.25
	lower := []metricDef{{Name: "m", Unit: "MB", Better: "lower"}}
	for _, tc := range []struct {
		name       string
		nw         []float64
		wins, ties int
		gain       bool
	}{
		{"all ten win by far", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 99}, 10, 0, true},
		{"nine wins and a loss", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 120}, 9, 0, true},
		{"nine wins and a tie", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 109}, 9, 1, true},
		{"eight wins", []float64{90, 91, 92, 93, 94, 95, 96, 97, 120, 120}, 8, 0, false},
		// Every pair wins, but the medians differ by 1, less than the
		// ref's quartile spread of 5.5.
		{"ten wins inside the spread", []float64{99, 100, 101, 102, 103, 104, 105, 106, 107, 108}, 10, 0, false},
	} {
		s := summarise(lower, pairsOf("m", ref, tc.nw))[0]
		if s.Wins != tc.wins || s.Ties != tc.ties || s.Gain != tc.gain || s.Pairs != 10 {
			t.Errorf("%s: wins %d ties %d gain %v of %d, want %d %d %v of 10",
				tc.name, s.Wins, s.Ties, s.Gain, s.Pairs, tc.wins, tc.ties, tc.gain)
		}
	}
	// A metric where higher is better wins the other way round.
	higher := []metricDef{{Name: "m", Unit: "1/s", Better: "higher"}}
	s := summarise(higher, pairsOf("m", ref, []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 129}))[0]
	if s.Wins != 10 || !s.Gain || s.ChangePct <= 0 {
		t.Errorf("higher is better: %+v", s)
	}
	s = summarise(lower, pairsOf("m", ref, []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 129}))[0]
	if s.Wins != 0 || s.Gain || s.ChangePct < 19 || s.ChangePct > 20 { // 124.5 against 104.5
		t.Errorf("a worse change: %+v", s)
	}
}

// TestMergeReplacesTheSameSet: a set of a workload and seed already in the
// file is replaced, any other is added after the rest.
func TestMergeReplacesTheSameSet(t *testing.T) {
	f := &benchFile{}
	f.merge(pairSet{Workload: "tce_ga", Seed: 42, RunSeconds: 1})
	f.merge(pairSet{Workload: "tce_ga", Seed: 7})
	f.merge(pairSet{Workload: "tce_ga", Seed: 42, RunSeconds: 2})
	if len(f.Sets) != 2 || f.Sets[0].Seed != 42 || f.Sets[0].RunSeconds != 2 || f.Sets[1].Seed != 7 {
		t.Fatalf("sets: %+v", f.Sets)
	}
}

// TestRunDriverReadsTheLastLine: a side's metrics are the values of the
// JSON line the driver's stdout ends with; a pass that is not correct is
// an error.
func TestRunDriverReadsTheLastLine(t *testing.T) {
	dir := t.TempDir()
	script := func(name, last string) string {
		p := filepath.Join(dir, name)
		body := "#!/bin/sh\necho 'result set: out/run.json'\necho '" + last + "'\n"
		if err := os.WriteFile(p, []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := script("ok", `{"attempted":5,"correct":true,"failed":0,"metrics":{"peak_rss_mb":{"unit":"MB","value":135.5},"wall_s":{"unit":"s","value":2}}}`)
	m, err := runDriver(context.Background(), ok, dir, dir, "tce_ga", 42, 12)
	if err != nil || m["peak_rss_mb"] != 135.5 || m["wall_s"] != 2 {
		t.Fatalf("runDriver = %v, %v", m, err)
	}
	bad := script("bad", `{"attempted":5,"correct":false,"failed":1,"metrics":{}}`)
	if _, err := runDriver(context.Background(), bad, dir, dir, "tce_ga", 42, 12); err == nil {
		t.Fatal("a failed pass read as a result")
	}
}

// TestRenderMarkdown: one table per set, a row per metric.
func TestRenderMarkdown(t *testing.T) {
	defs := []metricDef{{Name: "peak_rss_mb", Unit: "MB", Better: "lower"}, {Name: "wall_s", Unit: "s", Better: "lower"}}
	ps := pairsOf("peak_rss_mb", []float64{150, 151, 152}, []float64{135, 136, 137})
	for i := range ps {
		ps[i].Ref["wall_s"], ps[i].New["wall_s"] = 2, 2
	}
	f := &benchFile{Host: hostDesc{CPUModel: "cpu", NumCPU: 2, GoVersion: "go1.24.0"}, RefName: "HEAD~1",
		Sets: []pairSet{{Workload: "tce_ga", Seed: 42, RunSeconds: 12, Pairs: ps, Metrics: summarise(defs, ps)}}}
	var buf bytes.Buffer
	renderMarkdown(&buf, f)
	out := buf.String()
	for _, want := range []string{
		"`tce_ga`, seed 42, 3 pairs of 12 s runs",
		"| peak_rss_mb (MB) | 151 [150, 152] | 136 [135, 137] | -9.9 % | 3 of 3 | yes |",
		"| wall_s (s) | 2 [2, 2] | 2 [2, 2] | +0.0 % | 0 of 3 | no |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestSignalRemovesScratchDir: a run stopped by SIGINT or SIGTERM kills
// the command it was running and removes its benchpair-* directory. The
// run is a helper process (TestScratchDirHelper) that makes the directory
// as measure does and waits on a long command in it.
func TestSignalRemovesScratchDir(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			tmp := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestScratchDirHelper$", "--", "scratch-dir-helper")
			cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			out := bufio.NewReader(stdout)
			line, err := out.ReadString('\n')
			dir := strings.TrimSpace(line)
			if err != nil || filepath.Dir(dir) != tmp || !strings.HasPrefix(filepath.Base(dir), "benchpair-") {
				cmd.Process.Kill()
				t.Fatalf("helper printed %q (%v), want a benchpair-* directory in %s", line, err, tmp)
			}
			if _, err := os.Stat(filepath.Join(dir, "benchmark-ref")); err != nil {
				t.Fatalf("helper's directory: %v", err)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				io.Copy(io.Discard, out)
				done <- cmd.Wait()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("helper stopped by %v: %v", sig, err)
				}
			case <-time.After(20 * time.Second):
				cmd.Process.Kill()
				t.Fatalf("helper still running 20 s after %v", sig)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("%v left %s behind (stat: %v)", sig, dir, err)
			}
		})
	}
}

// TestScratchDirHelper is the process TestSignalRemovesScratchDir
// signals; run any other way, it skips.
func TestScratchDirHelper(t *testing.T) {
	if args := flag.Args(); len(args) != 1 || args[0] != "scratch-dir-helper" {
		t.Skip("the helper process of TestSignalRemovesScratchDir")
	}
	ctx, dir, cleanup, err := scratchDir()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark-ref"), nil, 0o755); err != nil {
		t.Fatal(err)
	}
	fmt.Println(dir)
	if exec.CommandContext(ctx, "sleep", "60").Run() == nil || ctx.Err() == nil {
		t.Error("the command ended without a signal")
	}
	if !cleanup() {
		t.Error("cleanup reports a run no signal stopped")
	}
}

// TestScratchDirCleanupWithoutSignal: a run that ends by itself removes
// its directory too, and is not reported as stopped by a signal.
func TestScratchDirCleanupWithoutSignal(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	_, dir, cleanup, err := scratchDir()
	if err != nil {
		t.Fatal(err)
	}
	if cleanup() {
		t.Error("cleanup reports a signal that never came")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("%s left behind (stat: %v)", dir, err)
	}
}
