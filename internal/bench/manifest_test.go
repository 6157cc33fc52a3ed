package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateManifest = flag.Bool("update", false, "rewrite testdata/identity.json from this build's output")

// The output manifest pins what every registered experiment renders over
// the seed axis: one SHA-256 per experiment over its CSV, its recovery
// lines and its failure flag at seeds 1-16, in order, at casperbench's
// -quick scale. A change that must keep every output byte (a refactor, a
// scheduler or fast-path rework) leaves the file alone; one that moves an
// output on purpose rewrites it with -update and says why.
const (
	manifestPath  = "testdata/identity.json"
	manifestSeeds = 16
)

// outputDigest runs experiment e at seeds 1..manifestSeeds and hashes what
// it renders.
func outputDigest(e Experiment) string {
	h := sha256.New()
	for seed := int64(1); seed <= manifestSeeds; seed++ {
		res := e.Run(Options{Scale: 0.12, Seed: seed, Parallel: 2})
		fmt.Fprintf(h, "seed %d\n%s", seed, res.CSV())
		for _, line := range res.Recovery {
			fmt.Fprintf(h, "recovery %s\n", line)
		}
		fmt.Fprintf(h, "failed %v\n", res.Failed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputManifest recomputes every experiment's digest and compares it
// with the committed manifest; with -update it rewrites the manifest
// instead. About a minute on two cores. Run it without -race: the race
// runtime's memory grows with every simulated process ever spawned.
func TestOutputManifest(t *testing.T) {
	got := map[string]string{}
	for _, e := range All() {
		got[e.ID] = outputDigest(e)
	}
	if *updateManifest {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(manifestPath), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), manifestPath)
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", manifestPath, err)
	}
	for _, e := range All() {
		if w, ok := want[e.ID]; !ok {
			t.Errorf("%s: no digest in %s (rerun with -update)", e.ID, manifestPath)
		} else if got[e.ID] != w {
			t.Errorf("%s: output over seeds 1-%d changed: digest %s, manifest %s", e.ID, manifestSeeds, got[e.ID], w)
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: in %s but not registered", id, manifestPath)
		}
	}
}
