// Command benchpair measures a change the way a performance claim is
// judged: the benchmark driver of two trees, run in alternating pairs on
// one host, summarised per end-to-end metric.
//
// Usage:
//
//	benchpair -ref HEAD~1 -workload tce_ga -seed 42 -pairs 10 -out BENCH_tce_memory.json
//	benchpair -render BENCH_tce_memory.json
//
// The ref side is the tree of a git ref, extracted with git archive into a
// temporary directory (local, no network), which is removed when the run
// ends, stopped by SIGINT or SIGTERM included; the change side is the
// current checkout. Each side builds its own ./benchmark and runs it in its own
// tree as the driver does (-workload W -seed S -seconds <run_seconds of
// BENCHMARK.json> -trace 0), reading the one-line JSON result it ends
// with. Pair i runs the ref first when i is even and the change first when
// it is odd.
//
// The result set for the workload and seed goes into the -out file beside
// the sets already there for other workloads or seeds: the host's CPU
// model and count, the Go version, both commits, every pair, and per
// metric each side's median and quartiles and the change's wins. -render
// prints a file's sets as Markdown tables.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is what benchpair reads of BENCHMARK.json.
type benchSpec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
}

// benchFile is a BENCH_<topic>.json: the host and commits, and one set per
// workload and seed.
type benchFile struct {
	Host     hostDesc  `json:"host"`
	RefName  string    `json:"ref"`
	RefHash  string    `json:"ref_commit"`
	NewHash  string    `json:"new_commit"`
	NewDirty bool      `json:"new_dirty,omitempty"` // the checkout differed from its commit
	Sets     []pairSet `json:"sets"`
}

// hostDesc is the machine the pairs ran on.
type hostDesc struct {
	CPUModel  string `json:"cpu_model"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// pairSet is the pairs of one workload at one seed and their summary.
type pairSet struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	RunSeconds int       `json:"run_seconds"`
	Pairs      []pair    `json:"pairs"`
	Metrics    []summary `json:"metrics"`
}

// pair is one run of each side.
type pair struct {
	RefFirst bool               `json:"ref_first"`
	Ref      map[string]float64 `json:"ref"`
	New      map[string]float64 `json:"new"`
}

// summary is one metric over a set's pairs.
type summary struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Ref    spread `json:"ref"`
	New    spread `json:"new"`
	// ChangePct is the change's median against the ref's, in percent.
	ChangePct float64 `json:"change_pct"`
	// Wins counts the pairs whose change side reads better; a tie counts
	// for neither side.
	Wins  int `json:"wins"`
	Ties  int `json:"ties"`
	Pairs int `json:"pairs"`
	// Gain holds when the change wins at least nine tenths of the pairs
	// and its median beats the ref's by more than the ref's own quartile
	// spread (Q3 - Q1).
	Gain bool `json:"gain"`
}

// spread of one side's samples.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ref      = fs.String("ref", "", "git ref of the side to compare against (the other side is the current checkout)")
		workload = fs.String("workload", "", "benchmark workload to run")
		seed     = fs.Int64("seed", 42, "benchmark seed")
		pairs    = fs.Int("pairs", 10, "pairs to run")
		out      = fs.String("out", "", "BENCH_<topic>.json to write (default BENCH_<workload>.json)")
		render   = fs.String("render", "", "print this BENCH file's sets as Markdown tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *render != "" {
		f, err := readFile(*render)
		if err != nil {
			fmt.Fprintf(stderr, "benchpair: %v\n", err)
			return 1
		}
		renderMarkdown(stdout, f)
		return 0
	}
	if *ref == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "usage: benchpair -ref R -workload W [-seed S] [-pairs N] [-out BENCH_topic.json]")
		return 2
	}
	if *out == "" {
		*out = "BENCH_" + *workload + ".json"
	}
	if err := measure(*ref, *workload, *seed, *pairs, *out, stderr); err != nil {
		fmt.Fprintf(stderr, "benchpair: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

// measure runs the pairs and merges their set into the out file.
func measure(ref, workload string, seed int64, pairs int, out string, log io.Writer) (err error) {
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	refHash, err := gitOut(root, "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	newHash, err := gitOut(root, "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	status, err := gitOut(root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	ctx, tmp, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer func() {
		if cleanup() {
			err = fmt.Errorf("stopped by a signal; removed %s", tmp)
		}
	}()
	refTree := filepath.Join(tmp, "ref")
	if err := extract(ctx, root, refHash, refTree); err != nil {
		return err
	}
	// Each side's driver, built in its own tree.
	type side struct {
		tree, bin string
		got       *map[string]float64 // where a pair keeps this side's metrics
	}
	var p pair
	refSide := &side{tree: refTree, bin: filepath.Join(tmp, "benchmark-ref"), got: &p.Ref}
	newSide := &side{tree: root, bin: filepath.Join(tmp, "benchmark-new"), got: &p.New}
	for _, sd := range []*side{refSide, newSide} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", sd.bin, "./benchmark")
		cmd.Dir, cmd.Stderr = sd.tree, log
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build the driver in %s: %w", sd.tree, err)
		}
	}
	set := pairSet{Workload: workload, Seed: seed, RunSeconds: spec.RunSeconds}
	for i := 0; i < pairs; i++ {
		p = pair{RefFirst: i%2 == 0}
		order := []*side{refSide, newSide}
		if !p.RefFirst {
			order[0], order[1] = newSide, refSide
		}
		for _, sd := range order {
			m, err := runDriver(ctx, sd.bin, sd.tree, filepath.Join(tmp, "out"), workload, seed, spec.RunSeconds)
			if err != nil {
				return err
			}
			*sd.got = m
		}
		fmt.Fprintf(log, "pair %d/%d (ref first %v): ref %v, new %v\n", i+1, pairs, p.RefFirst, p.Ref, p.New)
		set.Pairs = append(set.Pairs, p)
	}
	set.Metrics = summarise(spec.EndToEnd, set.Pairs)

	f := &benchFile{}
	if old, err := readFile(out); err == nil {
		f = old
	} else if !os.IsNotExist(err) {
		return err
	}
	if len(f.Sets) > 0 && (f.RefHash != refHash || f.NewHash != newHash) {
		return fmt.Errorf("%s holds sets of commits %.12s and %.12s; write this one elsewhere", out, f.RefHash, f.NewHash)
	}
	f.Host, f.RefName, f.RefHash, f.NewHash, f.NewDirty = hostInfo(), ref, refHash, newHash, status != ""
	f.merge(set)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// scratchDir makes a run's benchpair-* temporary directory, which holds
// the ref tree and both drivers, and a context that SIGINT or SIGTERM
// cancels, killing the command it runs. cleanup removes the directory,
// restores the signals' default action and reports whether one of them
// stopped the run: a deferred call runs however the run ends, where the
// default action would end the process before it.
func scratchDir() (ctx context.Context, dir string, cleanup func() (stopped bool), err error) {
	dir, err = os.MkdirTemp("", "benchpair-")
	if err != nil {
		return nil, "", nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, dir, func() bool {
		stopped := ctx.Err() != nil // before stop, which cancels ctx too
		stop()
		os.RemoveAll(dir)
		return stopped
	}, nil
}

// merge puts set in place of the file's set of the same workload and seed,
// or after the others.
func (f *benchFile) merge(set pairSet) {
	for i := range f.Sets {
		if f.Sets[i].Workload == set.Workload && f.Sets[i].Seed == set.Seed {
			f.Sets[i] = set
			return
		}
	}
	f.Sets = append(f.Sets, set)
}

// runDriver runs one side's driver in its tree and returns the metrics of
// the JSON line its stdout ends with.
func runDriver(ctx context.Context, bin, tree, outDir, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, bin, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", outDir)
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct {
		return nil, fmt.Errorf("driver in %s failed (%v, correct %v): %s", tree, err, res.Correct, lastLines(stderr.String(), 5))
	}
	m := map[string]float64{}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// summarise computes each metric's quartiles and wins over the pairs.
func summarise(defs []metricDef, pairs []pair) []summary {
	var out []summary
	for _, def := range defs {
		s := summary{Name: def.Name, Unit: def.Unit, Better: def.Better, Pairs: len(pairs)}
		var ref, nw []float64
		for _, p := range pairs {
			r, n := p.Ref[def.Name], p.New[def.Name]
			ref, nw = append(ref, r), append(nw, n)
			switch {
			case r == n:
				s.Ties++
			case (n < r) == (def.Better != "higher"):
				s.Wins++
			}
		}
		s.Ref, s.New = quartiles(ref), quartiles(nw)
		if s.Ref.Median != 0 {
			s.ChangePct = 100 * (s.New.Median - s.Ref.Median) / s.Ref.Median
		}
		gap := s.Ref.Median - s.New.Median
		if def.Better == "higher" {
			gap = -gap
		}
		s.Gain = 10*s.Wins >= 9*s.Pairs && gap > s.Ref.Q3-s.Ref.Q1
		out = append(out, s)
	}
	return out
}

// quartiles gives the quartiles Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method, which the driver uses too) and the
// median.
func quartiles(samples []float64) spread {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return spread{}
	case 1:
		return spread{v[0], v[0], v[0]}
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	med := v[n/2]
	if n%2 == 0 {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	return spread{q(1), med, q(3)}
}

// renderMarkdown prints one table per set: each metric's medians and
// quartiles, the change, and the wins.
func renderMarkdown(w io.Writer, f *benchFile) {
	dirty := ""
	if f.NewDirty {
		dirty = " (uncommitted changes)"
	}
	fmt.Fprintf(w, "Ref %s (%.12s) against %.12s%s; %s, %d CPUs, %s.\n",
		f.RefName, f.RefHash, f.NewHash, dirty, f.Host.CPUModel, f.Host.NumCPU, f.Host.GoVersion)
	for _, s := range f.Sets {
		fmt.Fprintf(w, "\n`%s`, seed %d, %d pairs of %d s runs, alternating which side runs first:\n\n",
			s.Workload, s.Seed, len(s.Pairs), s.RunSeconds)
		fmt.Fprintln(w, "| metric | ref median [Q1, Q3] | change median [Q1, Q3] | change | wins | gain |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, m := range s.Metrics {
			gain := "no"
			if m.Gain {
				gain = "yes"
			}
			fmt.Fprintf(w, "| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f %% | %d of %d | %s |\n",
				m.Name, m.Unit, m.Ref.Median, m.Ref.Q1, m.Ref.Q3, m.New.Median, m.New.Q1, m.New.Q3,
				m.ChangePct, m.Wins, m.Pairs, gain)
		}
	}
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

func readFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// extract writes the tree of commit into dir.
func extract(ctx context.Context, root, commit, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.CommandContext(ctx, "git", "archive", commit)
	archive.Dir = root
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", commit, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extract %s into %s: %w", commit, dir, err)
	}
	return nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func hostInfo() hostDesc {
	h := hostDesc{NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		h.GoVersion = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
