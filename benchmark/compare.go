package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictBeyond     = "BEYOND BOUND"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "DIFFERS"
	verdictInfo       = ""
)

// comparison is one row of -compare.
type comparison struct {
	Workload string
	Metric   string
	Unit     string
	Base     float64 // a's median: the base of the ratio
	Other    float64 // b's median
	Ratio    float64 // Other / Base
	Verdict  string
}

// worsening is how much worse b is than a, as a share of a: positive is
// worse, whichever direction is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one end-to-end metric of one workload between set a
// (the base) and set b.
//
//   - beyond bound: b's median is worse than a's by more than the bound.
//   - unresolved: the medians agree within the bound, but either set's
//     own spread — the distance between its quartiles, as a share of its
//     median, which is how the driver and the choosing-metrics guide take
//     it — is wider than the bound, so these runs could not have shown a
//     regression of that size; unless every run of b reads better than
//     every run of a.
//   - ok: within the bound, and the runs were steady enough to tell.
func judge(def metricDef, a, b stat) string {
	if worsening(def, a.Median, b.Median) > def.Bound {
		return verdictBeyond
	}
	if quartileSpread(a) > def.Bound || quartileSpread(b) > def.Bound {
		allBetter := b.Max < a.Min
		if def.Better == "higher" {
			allBetter = b.Min > a.Max
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// quartileSpread is (Q3 - Q1) / median of a stat's samples, with the
// quartiles Python's statistics.quantiles(v, n=4) gives (the "exclusive"
// method), so the number is the one the driver computes.
func quartileSpread(s stat) float64 {
	n := len(s.Samples)
	if n < 2 || s.Median == 0 {
		return 0
	}
	v := append([]float64(nil), s.Samples...)
	sort.Float64s(v)
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / s.Median
}

// layerVerdict judges a per-layer pair: exact counts must be identical,
// everything else is listed for the reader without a verdict.
func layerVerdict(def metricDef, a, b float64) string {
	switch {
	case !def.Exact:
		return verdictInfo
	case a != b:
		return verdictDiffers
	}
	return verdictOK
}

// compareSets lines up every (metric, workload) pair present in both
// sets: end-to-end metrics are judged against their bounds, exact counts
// must be identical, and the remaining per-layer metrics are listed with
// their ratio for the reader.
func compareSets(a, b resultSet) []comparison {
	var rows []comparison
	bw := map[string]workloadResult{}
	for _, w := range b.Workloads {
		bw[w.Name] = w
	}
	add := func(wl string, def metricDef, sa, sb stat, verdict string) {
		c := comparison{Workload: wl, Metric: def.Name, Unit: def.Unit, Base: sa.Median, Other: sb.Median, Verdict: verdict}
		if sa.Median != 0 {
			c.Ratio = sb.Median / sa.Median
		}
		rows = append(rows, c)
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			sa, oka := wa.EndToEnd[def.Name]
			sb, okb := wb.EndToEnd[def.Name]
			if oka && okb {
				add(wa.Name, def, sa, sb, judge(def, sa, sb))
			}
		}
		for _, def := range workloadLayerDefs() {
			sa, oka := wa.PerLayer[def.Name]
			sb, okb := wb.PerLayer[def.Name]
			if !oka || !okb {
				continue
			}
			add(wa.Name, def, sa, sb, layerVerdict(def, sa.Median, sb.Median))
		}
	}
	for _, def := range probeDefs {
		va, oka := a.Probes[def.Name]
		vb, okb := b.Probes[def.Name]
		if !oka || !okb {
			continue
		}
		add("(probe)", def, stat{Median: va}, stat{Median: vb}, layerVerdict(def, va, vb))
	}
	return rows
}

func readSet(path string) (resultSet, error) {
	var rs resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareFiles is -compare a.json b.json. It exits 1 when any pair is
// beyond its bound, differs where it must be identical, or is unresolved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]resultSet
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
			return 2
		}
	}
	return printComparison(stdout, pathA, pathB, sets[0], sets[1])
}

func printComparison(w io.Writer, pathA, pathB string, a, b resultSet) int {
	fmt.Fprintf(w, "# base a = %s (seed %d, %s, %d cpu)\n# b      = %s (seed %d, %s, %d cpu)\n",
		pathA, a.Seed, a.Host.GoVersion, a.Host.NumCPU, pathB, b.Seed, b.Host.GoVersion, b.Host.NumCPU)
	fmt.Fprintf(w, "%-22s %-34s %14s %14s %-6s %9s  %s\n", "workload", "metric", "a (base)", "b", "unit", "b/a", "verdict")
	rows := compareSets(a, b)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	counts := map[string]int{}
	for _, c := range rows {
		fmt.Fprintf(w, "%-22s %-34s %14.6g %14.6g %-6s %9.4f  %s\n", c.Workload, c.Metric, c.Base, c.Other, c.Unit, c.Ratio, c.Verdict)
		counts[c.Verdict]++
	}
	fmt.Fprintf(w, "\n%d pairs: %d ok, %d beyond bound, %d unresolved, %d exact counts differ, %d listed without a bound\n",
		len(rows), counts[verdictOK], counts[verdictBeyond], counts[verdictUnresolved], counts[verdictDiffers], counts[verdictInfo])
	if counts[verdictBeyond]+counts[verdictUnresolved]+counts[verdictDiffers] > 0 {
		return 1
	}
	return 0
}
