package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The evidence documents cite committed files and each other's sections by
// name. These tests hold both kinds of reference to what the tree has:
// a BENCH_*.json that a document names must exist, every committed one
// must be cited where the measurements are kept (EXPERIMENTS.md), and a
// section title quoted after "EXPERIMENTS.md" must still open a section of
// it. CHANGES.md is history and is not checked.

var benchFileRe = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)

// TestDocsEvidenceFiles fails on a BENCH_*.json named in README.md,
// DESIGN.md or EXPERIMENTS.md that does not exist, and on a committed one
// that EXPERIMENTS.md does not name.
func TestDocsEvidenceFiles(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		seen := map[string]bool{}
		for _, name := range benchFileRe.FindAllString(readDoc(t, doc), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s, which is not in the tree", doc, name)
			}
		}
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json in the tree")
	}
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, f := range files {
		if !strings.Contains(experiments, f) {
			t.Errorf("%s is committed but EXPERIMENTS.md does not name it", f)
		}
	}
}

// pointerRe matches "EXPERIMENTS.md" followed by a separator (space,
// comma, colon or an opening parenthesis) and one or more quoted section
// titles joined by commas, "and" or "or".
var pointerRe = regexp.MustCompile(`EXPERIMENTS\.md` + "`?" + `(?:'s)?[\s,:(]+` +
	`("[^"]{1,120}"(?:\s*(?:,|and|or|, and)\s*"[^"]{1,120}")*)`)

var quotedRe = regexp.MustCompile(`"([^"]+)"`)

// TestDocsTitlePointers fails on a title quoted after "EXPERIMENTS.md" in
// a Go file, README.md, DESIGN.md or ROADMAP.md that is not the start of a
// heading or of a **bold lead** in EXPERIMENTS.md. In Go files a comment
// may wrap the title across "//" lines.
func TestDocsTitlePointers(t *testing.T) {
	titles := sectionTitles(readDoc(t, "EXPERIMENTS.md"))
	texts := map[string]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", "ROADMAP.md"} {
		texts[doc] = readDoc(t, doc)
	}
	commentJoin := regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		texts[p] = commentJoin.ReplaceAllString(string(b), " ")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for name, text := range texts {
		for _, m := range pointerRe.FindAllStringSubmatch(collapseSpace(text), -1) {
			for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
				checked++
				title := strings.TrimRight(q[1], "…. ")
				if !opensSection(titles, title) {
					t.Errorf("%s points at EXPERIMENTS.md %q, which opens no heading or bold lead there", name, q[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no quoted EXPERIMENTS.md title anywhere; the pattern no longer matches the tree's pointers")
	}
}

// sectionTitles returns the text of every heading and every **bold**
// span of a Markdown document, whitespace collapsed.
func sectionTitles(doc string) []string {
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^#+[ \t]+(.+)$`).FindAllStringSubmatch(doc, -1) {
		out = append(out, collapseSpace(m[1]))
	}
	for _, m := range regexp.MustCompile(`\*\*([^*]+)\*\*`).FindAllStringSubmatch(doc, -1) {
		out = append(out, collapseSpace(m[1]))
	}
	return out
}

func opensSection(titles []string, title string) bool {
	if title == "" {
		return false
	}
	for _, s := range titles {
		if strings.HasPrefix(s, title) {
			return true
		}
	}
	return false
}

func collapseSpace(s string) string { return strings.Join(strings.Fields(s), " ") }

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
