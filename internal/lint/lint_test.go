package lint

// The fixture tests use "// want <analyzer>" expectation comments: every
// marked line must produce exactly one finding from that analyzer, and no
// finding may appear on an unmarked line. This keeps the fixtures
// self-describing and immune to line-number drift.

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var wantRe = regexp.MustCompile(`// want (\w+)`)

// wantLines parses the "// want <analyzer>" markers of every fixture file.
func wantLines(t *testing.T, p *Package) map[string]string {
	t.Helper()
	want := make(map[string]string) // "file:line" -> analyzer
	fset := token.NewFileSet()
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		parsed, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range parsed.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				want[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = m[1]
			}
		}
	}
	return want
}

// checkFixture runs the full analyzer set over one fixture and matches
// findings against the want markers exactly.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	p := loadFixture(t, name)
	want := wantLines(t, p)
	if len(want) == 0 {
		t.Fatalf("fixture %s has no want markers", name)
	}
	got := Lint(p)
	seen := make(map[string]bool)
	for _, f := range got {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		analyzer, expected := want[key]
		if !expected {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if analyzer != f.Analyzer {
			t.Errorf("finding at %s from %s, want %s", key, f.Analyzer, analyzer)
		}
		if seen[key] {
			t.Errorf("duplicate finding at %s: %s", key, f)
		}
		seen[key] = true
	}
	for key, analyzer := range want {
		if !seen[key] {
			t.Errorf("missing %s finding at %s", analyzer, key)
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) { checkFixture(t, "hotfix") }
func TestMapIterFixture(t *testing.T)      { checkFixture(t, "mapiterfix") }

// TestFindingsSorted: reporting order is position-sorted so cwlint output
// is deterministic regardless of analyzer registration order.
func TestFindingsSorted(t *testing.T) {
	p := loadFixture(t, "hotfix")
	got := Lint(p)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1].Pos, got[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("findings out of order: %s before %s", got[i-1], got[i])
		}
	}
}

// TestAnnotatedRepoPackagesClean is the in-tree slice of the CI cwlint job:
// the packages carrying //cwlint:hotpath annotations must lint clean.
func TestAnnotatedRepoPackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib closure from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"../sim", "../serve", "../core", "../trace"} {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range Lint(p) {
			t.Errorf("%s", f)
		}
	}
}

// TestLoaderRejectsEmptyDir: a directory without Go files is a usage error,
// not a silent pass.
func TestLoaderRejectsEmptyDir(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("expected no-Go-files error, got %v", err)
	}
}
