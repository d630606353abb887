package regreloc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exported functions and methods that no
// production Go file names, each with the reason it stays. Production
// is every non-test Go file in the repository, cmd/, examples/ and
// perfbench/ included.
var keptExports = map[string]string{
	"regreloc.AnalyzeProgram":                              "facade: the package's godoc example shows it (doc.go)",
	"regreloc.SimulateNetwork":                             "facade: an extension substrate doc.go keeps",
	"regreloc.NetworkFixedPoint":                           "facade: an extension substrate doc.go keeps",
	"regreloc.CoupledNodeRun":                              "facade: an extension substrate doc.go keeps",
	"regreloc.DefaultCacheStudy":                           "facade: an extension substrate doc.go keeps",
	"regreloc.NewAdaptiveLimiter":                          "facade: an extension substrate doc.go keeps",
	"regreloc/internal/analysis.Severity.MarshalJSON":      "encoding/json calls it (json.Marshaler)",
	"regreloc/internal/machine.Exception.Unwrap":           "errors.Is and errors.As call it",
	"regreloc/internal/bitmap.Word.FindAlignedLinear":      "DESIGN.md cites it for Appendix A's probe counts",
	"regreloc/internal/bitmap.Word.FindAlignedBinary":      "DESIGN.md cites it for Appendix A's probe counts",
	"regreloc/internal/compiler.NewCallGraph":              "DESIGN.md cites the call-graph traversal for Section 2.4",
	"regreloc/internal/compiler.CallGraph.ThreadRegisters": "DESIGN.md cites the call-graph traversal for Section 2.4",
	"regreloc/internal/kernel.Kernel.EnableRemoteMissTrap": "DESIGN.md cites it for APRIL-style remote-miss yields",
	"regreloc/internal/sched.NewPriorityRings":             "DESIGN.md cites sched.PriorityRings for Section 2.2's priority classes",
	"regreloc/internal/sched.PriorityRings.Classes":        "DESIGN.md cites sched.PriorityRings for Section 2.2's priority classes",
	"regreloc/internal/sched.PriorityRings.SetClass":       "DESIGN.md cites sched.PriorityRings for Section 2.2's priority classes",
	"regreloc/internal/regfile.File.SetBound":              "the planned context-size fix for ModeBounded and ModeMUX calls it",
	"regreloc/internal/stats.Streaming.CI95":               "the planned per-cell error bars over replicate seeds call it",
}

// TestNoTestOnlyExports fails on an exported function or method that
// no production Go file names, unless keptExports says why it stays,
// and on a keptExports entry that production code names after all.
//
// The scan is name-based: any identifier in production code with the
// function's name counts as a use. So a function shares its fate with
// every identifier of the same name: stats.Streaming's Min, for one,
// passes as used because production code names other things Min.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]string{} // key -> position
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := path.Join("regreloc", filepath.ToSlash(filepath.Dir(p)))
		names := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if key, ok := exportKey(pkg, fd); ok {
				decls[key] = fset.Position(fd.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, pos := range decls {
		if used[key[strings.LastIndex(key, ".")+1:]] {
			continue
		}
		if _, ok := keptExports[key]; !ok {
			unused = append(unused, pos+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, move it to an export_test.go, or say in keptExports why it stays", u)
	}
	for key := range keptExports {
		name := key[strings.LastIndex(key, ".")+1:]
		if _, ok := decls[key]; !ok || used[name] {
			t.Errorf("keptExports lists %s, which is gone or named by production code", key)
		}
	}
}

// exportKey names an exported function or method of an exported type
// as pkg.Func or pkg.Type.Method.
func exportKey(pkg string, fd *ast.FuncDecl) (string, bool) {
	if !fd.Name.IsExported() {
		return "", false
	}
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, true
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if index, ok := typ.(*ast.IndexExpr); ok {
		typ = index.X
	}
	id, ok := typ.(*ast.Ident)
	if !ok || !id.IsExported() {
		return "", false
	}
	return pkg + "." + id.Name + "." + fd.Name.Name, true
}
