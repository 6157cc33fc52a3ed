package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods under
// internal/ that may stay without a caller in the module's non-test
// code, each with the reason it stays. Keys are "pkg.Func" or
// "pkg.Type.Method".
var unreferencedAllowed = map[string]string{
	"mpi.TotalSwitches":  "the switch census that ROADMAP A and M report",
	"mpi.TotalOpsIssued": "the switch census that ROADMAP A and M report",

	"sim.ShardGroup.Inject":         "ROADMAP A(ii) deletes shard.go with benchmark/'s use of it",
	"sim.ShardGroup.Engines":        "ROADMAP A(ii) deletes shard.go with benchmark/'s use of it",
	"sim.ShardGroup.SetEventBudget": "ROADMAP A(ii) deletes shard.go with benchmark/'s use of it",
	"sim.ShardGroup.SetMaxTime":     "ROADMAP A(ii) deletes shard.go with benchmark/'s use of it",
	"trace.Tracer.Render":           "ROADMAP D replaces this output path",
}

// TestNoUnreferencedExports fails on every exported function, and every
// exported method of an exported type, declared in a non-test file under
// internal/ that no non-test file of the module refers to. An export
// only tests call is surface to delete or to move into the package's
// export_test.go; an entry in unreferencedAllowed keeps one on purpose.
//
// References are found by name, without type information: a function
// counts as referenced by a bare identifier in its own package or a
// qualified one elsewhere, a method by any selector of its name. A name
// collision can hide an unreferenced method; a method that only a
// standard-library interface calls (no selector of its name anywhere)
// needs an allowlist entry.
func TestNoUnreferencedExports(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	var (
		fset    = token.NewFileSet()
		decls   []decl
		funcRef = map[string]bool{} // "import/path.Name"
		selRef  = map[string]bool{} // selector names, for methods
	)
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{} // local name -> import path
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = ip
		}
		// refs records the references under n, other than self (the
		// declaration's own name) and, for a function, its recursion.
		var refs func(n ast.Node, self *ast.Ident, isFunc bool)
		refs = func(n ast.Node, self *ast.Ident, isFunc bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if ip, ok := imports[id.Name]; ok {
							funcRef[ip+"."+x.Sel.Name] = true
							return false
						}
					}
					if x.Sel != self {
						selRef[x.Sel.Name] = true
					}
					refs(x.X, self, isFunc)
					return false
				case *ast.Ident:
					if x != self && !(isFunc && self != nil && x.Name == self.Name) {
						funcRef[pkgPath+"."+x.Name] = true
					}
				}
				return true
			})
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if strings.HasPrefix(p, "internal"+string(filepath.Separator)) && fn.Name.IsExported() {
				key := path.Base(pkgPath) + "." + fn.Name.Name
				recv := ""
				if fn.Recv != nil {
					recv = recvType(fn.Recv.List[0].Type)
					key = path.Base(pkgPath) + "." + recv + "." + fn.Name.Name
				}
				if fn.Recv == nil || ast.IsExported(recv) {
					decls = append(decls, decl{key, fset.Position(fn.Pos())})
				}
			}
			refs(fn, fn.Name, fn.Recv == nil)
		}
		// References outside function bodies: package-level vars,
		// tables of function values, type declarations.
		for _, gd := range f.Decls {
			if _, ok := gd.(*ast.FuncDecl); !ok {
				refs(gd, nil, false)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported function found under internal/")
	}
	var bad []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		parts := strings.Split(d.key, ".")
		name := parts[len(parts)-1]
		var used bool
		if len(parts) == 3 {
			used = selRef[name]
		} else {
			dir := filepath.ToSlash(filepath.Dir(d.pos.Filename))
			used = funcRef[path.Join("repro", dir)+"."+name]
		}
		if _, ok := unreferencedAllowed[d.key]; ok {
			if used {
				t.Errorf("%s: %s is referenced now: drop its allowlist entry", d.pos, d.key)
			}
			continue
		}
		if !used {
			bad = append(bad, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no caller outside tests: delete it, move it to export_test.go, or allow it with a reason", b)
	}
	for key := range unreferencedAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no declaration: drop it", key)
		}
	}
}

// recvType returns the type name of a method receiver expression.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
