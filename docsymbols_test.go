package jsoninference_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSymbol matches a backquoted span that names one Go symbol:
// pkg.Name, Type.Member or (*Type).Member, with an optional "()".
var docSymbol = regexp.MustCompile("`\\(?\\*?([A-Za-z_][A-Za-z0-9_]*)\\)?\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\(\\))?`")

// treeDecls holds what the tree declares: package names, type names,
// the top-level names of each package and the members (fields and
// methods) of each type, keyed by name alone.
type treeDecls struct {
	pkgs, types, top, members map[string]bool
}

// parseTree collects the declarations of every .go file in the tree,
// tests and the benchmark module included.
func parseTree(t *testing.T) treeDecls {
	d := treeDecls{pkgs: map[string]bool{}, types: map[string]bool{}, top: map[string]bool{}, members: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The docs import the root package as jsi.
	d.pkgs["jsi"] = true
	for k := range d.top {
		if name, ok := strings.CutPrefix(k, "jsoninference."); ok {
			d.top["jsi."+name] = true
		}
	}
	return d
}

// add records the declarations of one file.
func (d treeDecls) add(f *ast.File) {
	pkg := f.Name.Name
	d.pkgs[pkg] = true
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[pkg+"."+decl.Name.Name] = true
				continue
			}
			recv := decl.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				d.members[id.Name+"."+decl.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					d.top[pkg+"."+spec.Name.Name] = true
					d.types[spec.Name.Name] = true
					var fields *ast.FieldList
					switch tt := spec.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							d.members[spec.Name.Name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
}

// TestDocSymbolsResolve keeps the API docs honest: every backquoted
// pkg.Name, Type.Member or (*Type).Member in README.md, DESIGN.md and
// docs/*.md whose first part is a package or a type of the tree must
// name a declaration of the tree, so a removed symbol cannot live on in
// prose. Spans whose first part the tree does not declare (standard
// library packages, file names) are not checked. docs/PERFORMANCE.md,
// which records the history of symbols since deleted, is not checked.
func TestDocSymbolsResolve(t *testing.T) {
	d := parseTree(t)
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		if doc == filepath.Join("docs", "PERFORMANCE.md") {
			continue
		}
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docSymbol.FindAllSubmatchIndex(data, -1) {
			x, y := string(data[m[2]:m[3]]), string(data[m[4]:m[5]])
			if (!d.pkgs[x] && !d.types[x]) || y == "go" {
				continue // not the tree's, or a file name
			}
			checked++
			if !d.top[x+"."+y] && !d.members[x+"."+y] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d: %s names no declaration in the tree", doc, line, data[m[0]:m[1]])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no doc symbols checked")
	}
}
