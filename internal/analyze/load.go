package analyze

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset is the file set shared by all packages of one Loader.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records the checker's type and object resolutions.
	Info *types.Info
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module packages are resolved against the
// module root (read from go.mod) and type-checked recursively, while
// standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler.
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string // module path from go.mod
	std     types.Importer
	cache   map[string]*loadEntry
}

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// NewLoader creates a loader for the module containing dir (dir itself
// or an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*loadEntry),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analyze: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analyze: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// Load resolves the patterns to module packages and type-checks them.
// A pattern is either a directory path (absolute, or relative to the
// current working directory) or such a path followed by "/..." to
// include every package below it. Directories named "testdata", hidden
// directories, and directories without non-test .go files are skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			dirSet[abs] = true
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirSet[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		if !hasGoFiles(dir) {
			continue
		}
		path, err := l.dirImportPath(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("analyze: no packages matched %v", patterns)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// dirImportPath maps a directory inside the module to its import path.
func (l *Loader) dirImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analyze: %s is outside module %s", dir, l.root)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadPath type-checks the module package with the given import path,
// memoized. Imports of other module packages recurse through the same
// cache; standard-library imports go to the source importer.
func (l *Loader) loadPath(path string) (*Package, error) {
	if e, ok := l.cache[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("analyze: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	dir := l.root
	if path != l.modPath {
		rel, ok := strings.CutPrefix(path, l.modPath+"/")
		if !ok {
			return nil, fmt.Errorf("analyze: %q is not a module package", path)
		}
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	return l.loadDirAs(dir, path)
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, without pattern expansion. It is the entry point
// the golden-fixture tests use to check testdata packages (which the
// normal walk skips).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDirAs(abs, asPath)
}

func (l *Loader) loadDirAs(dir, path string) (*Package, error) {
	entry := &loadEntry{loading: true}
	l.cache[path] = entry
	pkg, err := l.typecheckDir(dir, path)
	entry.pkg, entry.err, entry.loading = pkg, err, false
	return pkg, err
}

func (l *Loader) typecheckDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyze: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analyze: type errors in %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// importPkg resolves one import for the type checker: module packages
// recurse into the loader, everything else goes to the GOROOT source
// importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to the types.Importer interface.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
