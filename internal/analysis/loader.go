package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, build-constraint filtered
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of a single module. Imports
// inside the module are resolved against the module directory; standard
// library imports are type-checked from GOROOT source via the stdlib
// source importer. No export data, go command invocation, or third-party
// loader is involved, so the loader works in a hermetic build environment.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	std      types.Importer
	pkgs     map[string]*Package
	testPkgs map[string]*Package // test-augmented variants, keyed by import path
	loading  map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir (the
// nearest parent directory with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		modDir = parent
	}
	modPath, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  modDir,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer: module-local packages are loaded from
// source under the module directory, everything else is delegated to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the module package with the given import
// path (cached across calls, so shared dependencies are checked once).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(importPath, l.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	p, err := l.LoadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// LoadTests parses and type-checks the test-augmented variant of a
// module package: its non-test files plus the in-package _test.go files,
// checked together as one package (the go tool's internal-test view).
// External _test packages are not loaded. Returns nil with no error when
// the package has no in-package test files. Results are cached separately
// from the non-test variant, so the two views never alias.
func (l *Loader) LoadTests(importPath string) (*Package, error) {
	if l.testPkgs == nil {
		l.testPkgs = map[string]*Package{}
	}
	if p, ok := l.testPkgs[importPath]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(importPath, l.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	if len(bp.TestGoFiles) == 0 {
		l.testPkgs[importPath] = nil
		return nil, nil
	}
	p, err := l.loadDir(dir, importPath, true)
	if err != nil {
		return nil, err
	}
	l.testPkgs[importPath] = p
	return p, nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. Test files are excluded; build constraints are
// evaluated under the default build context (so files behind optional
// tags like debugassert are analyzed only when the tag is active).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath, false)
}

// LoadDirTests is LoadDir including the directory's in-package _test.go
// files — the fixture-loading path for analyzers that inspect tests.
func (l *Loader) LoadDirTests(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath, true)
}

func (l *Loader) loadDir(dir, importPath string, includeTests bool) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	names := append([]string{}, bp.GoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ExpandPatterns resolves package patterns ("./...", "./internal/geom",
// import paths) into the module's import paths, mirroring the go tool's
// pattern syntax closely enough for a lint driver. testdata, hidden and
// underscore-prefixed directories are skipped, as are directories with no
// non-test Go files and, like the go tool, nested modules (directories
// holding their own go.mod).
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walkTree(l.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./") && strings.HasSuffix(pat, "/..."):
			rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/...")
			paths, err := l.walkTree(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(strings.TrimPrefix(pat, "./"))
			if rel == "" || rel == "." {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	return out, nil
}

// walkTree lists every buildable package directory under root (a
// directory inside the module) as an import path.
func (l *Loader) walkTree(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != l.ModuleDir {
			return filepath.SkipDir // a nested module is not part of this one
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no buildable Go files here; keep walking
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}
