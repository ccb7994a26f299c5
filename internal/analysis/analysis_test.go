package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestLoaderModulePackage exercises the module-local import resolution:
// internal/dissim imports internal/geom and internal/trajectory, all of
// which must type-check from source with only stdlib machinery.
func TestLoaderModulePackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "mstsearch" {
		t.Fatalf("module path = %q, want mstsearch", l.ModulePath)
	}
	pkg, err := l.Load("mstsearch/internal/dissim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded")
	}
	if pkg.Types.Name() != "dissim" {
		t.Fatalf("package name = %q, want dissim", pkg.Types.Name())
	}
	// Cached second load must return the same package.
	again, err := l.Load("mstsearch/internal/dissim")
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if again != pkg {
		t.Error("second Load did not hit the cache")
	}
}

func TestExpandPatterns(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	want := map[string]bool{
		"mstsearch":                   false,
		"mstsearch/internal/geom":     false,
		"mstsearch/internal/storage":  false,
		"mstsearch/cmd/mstlint":       false,
		"mstsearch/internal/analysis": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("pattern ./... did not yield %s (got %d paths)", p, len(paths))
		}
	}
	// perfbench is a module of its own: ./... stops at its go.mod.
	for _, p := range paths {
		if strings.HasPrefix(p, "mstsearch/perfbench") {
			t.Errorf("pattern ./... entered the nested module: %s", p)
		}
	}
}

// TestSuppressions checks directive parsing and coverage rules directly.
func TestSuppressions(t *testing.T) {
	d := Diagnostic{Analyzer: "floatcmp", Position: token.Position{Filename: "f.go", Line: 10}}
	s := &suppressions{byLine: map[string]map[int]*ignoreDirective{
		"f.go": {9: {analyzer: "floatcmp", reason: "r"}},
	}}
	if !s.suppressed(d) {
		t.Error("directive on the previous line should suppress")
	}
	s = &suppressions{byLine: map[string]map[int]*ignoreDirective{
		"f.go": {10: {analyzer: "*", reason: "r"}},
	}}
	if !s.suppressed(d) {
		t.Error("wildcard directive on the same line should suppress")
	}
	s = &suppressions{byLine: map[string]map[int]*ignoreDirective{
		"f.go": {10: {analyzer: "ctxflow", reason: "r"}},
	}}
	if s.suppressed(d) {
		t.Error("directive for another analyzer must not suppress")
	}
}

// collectFrom parses one source string and gathers its directives.
func collectFrom(t *testing.T, src string) *suppressions {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return collectSuppressions(fset, []*ast.File{f})
}

// TestJustificationLength enforces the MinJustification floor: a
// directive with a placeholder-grade justification is itself a finding
// and suppresses nothing.
func TestJustificationLength(t *testing.T) {
	s := collectFrom(t, `package p

func f() {
	//lint:ignore floatcmp ok
	_ = 1.0 == 1.0
	//lint:ignore floatcmp this comparison is bit-exact by construction
	_ = 2.0 == 2.0
	//lint:ignore floatcmp
	_ = 3.0
}
`)
	if len(s.bad) != 2 {
		t.Fatalf("got %d bad directives, want 2 (short justification + missing justification): %v", len(s.bad), s.bad)
	}
	if !strings.Contains(s.bad[0].Message, "too short") {
		t.Errorf("short-justification message = %q", s.bad[0].Message)
	}
	if !strings.Contains(s.bad[1].Message, "malformed") {
		t.Errorf("missing-justification message = %q", s.bad[1].Message)
	}
	// The under-justified directive must not have been indexed: it cannot
	// suppress the finding on the next line.
	d := Diagnostic{Analyzer: "floatcmp", Position: token.Position{Filename: "sup.go", Line: 5}}
	if s.suppressed(d) {
		t.Error("under-justified directive must not suppress")
	}
	// The well-justified one suppresses as usual.
	d.Position.Line = 7
	if !s.suppressed(d) {
		t.Error("justified directive should suppress")
	}
}

// TestUnusedDirectives: a directive that no longer matches any finding
// is reported, but only when its analyzer actually ran.
func TestUnusedDirectives(t *testing.T) {
	s := collectFrom(t, `package p

func f() {
	//lint:ignore floatcmp this line was fixed long ago and the directive rotted
	_ = 1
	//lint:ignore lockorder this analyzer is out of scope for this run
	_ = 2
}
`)
	unused := s.unused(map[string]bool{"floatcmp": true})
	if len(unused) != 1 {
		t.Fatalf("got %d unused diagnostics, want 1 (lockorder did not run): %v", len(unused), unused)
	}
	if !strings.Contains(unused[0].Message, "unused //lint:ignore floatcmp") {
		t.Errorf("message = %q", unused[0].Message)
	}

	// Once the directive suppresses something it is used.
	d := Diagnostic{Analyzer: "floatcmp", Position: token.Position{Filename: "sup.go", Line: 5}}
	if !s.suppressed(d) {
		t.Fatal("directive should suppress")
	}
	if got := s.unused(map[string]bool{"floatcmp": true}); len(got) != 0 {
		t.Errorf("used directive still reported: %v", got)
	}
}

// TestLoadTests exercises the test-augmented package view.
func TestLoadTests(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadTests("mstsearch/internal/obs")
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if pkg == nil {
		t.Fatal("internal/obs has test files; got nil")
	}
	hasTestFile := false
	for _, f := range pkg.Files {
		if strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
			hasTestFile = true
		}
	}
	if !hasTestFile {
		t.Error("test-augmented view contains no _test.go files")
	}
	again, err := l.LoadTests("mstsearch/internal/obs")
	if err != nil || again != pkg {
		t.Errorf("second LoadTests did not hit the cache (err=%v)", err)
	}
	// A package with no in-package tests loads as nil, nil.
	none, err := l.LoadTests("mstsearch/internal/analysis/analysistest")
	if err != nil || none != nil {
		t.Errorf("test-free package: got (%v, %v), want (nil, nil)", none, err)
	}
}
