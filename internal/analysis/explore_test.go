package analysis

// Equivalence test for the path enumerator: exploreFunc makes one
// interpreter run per path, continuing through every undecided branch and
// queuing the other decision. restartExplore is the enumerator it replaced —
// a run that reaches an undecided branch is thrown away and both decisions
// are queued from the top — kept here as the reference.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

// restartExplore enumerates f's paths breadth-first, restarting every run
// that reaches an undecided condition: room 1 lets fork record the first
// such condition, and whatever the run did after it is discarded.
func restartExplore(f *ir.Op) *funcPaths {
	fp := &funcPaths{}
	known := new(FieldStates)
	pending := []map[string]bool{{}}
	for len(pending) > 0 {
		if len(fp.paths)+len(pending) > maxPaths {
			fp.inconclusive = append(fp.inconclusive, fmt.Sprintf("more than %d paths", maxPaths))
			return fp
		}
		script := pending[0]
		pending = pending[1:]
		fp.runs++
		in := &interp{absState: entryState(f, known, 0), assigns: copyScript(script), room: 1, fuel: maxFuel}
		err := in.evalBlock(f.Region(0).Block())
		if len(in.forks) > 0 {
			taken := copyScript(in.forks[0])
			for k := range taken {
				if _, ok := script[k]; !ok {
					taken[k] = true
				}
			}
			pending = append(pending, taken, in.forks[0])
			continue
		}
		if err != nil {
			fp.inconclusive = append(fp.inconclusive, err.Error())
			return fp
		}
		fp.paths = append(fp.paths, &path{assigns: in.assigns, events: in.events})
	}
	return fp
}

func copyScript(a map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+1)
	for k, v := range a {
		out[k] = v
	}
	return out
}

// renderPaths lists every path as its signature and its events, sorted by
// signature: the part of an exploration CompareSummaries reads.
func renderPaths(fp *funcPaths) []string {
	out := make([]string, 0, len(fp.paths))
	for _, p := range fp.paths {
		var b strings.Builder
		b.WriteString(p.signature())
		for _, e := range p.events {
			b.WriteString("\n  ")
			b.WriteString(e.String())
		}
		out = append(out, b.String())
	}
	slices.Sort(out)
	return out
}

// checkAgainstRestart explores every function of m both ways.
func checkAgainstRestart(t *testing.T, name string, m *ir.Module) (paths, restarts int) {
	t.Helper()
	for _, f := range m.Funcs() {
		got, want := exploreFunc(f), restartExplore(f)
		if !slices.Equal(got.inconclusive, want.inconclusive) {
			t.Errorf("%s: inconclusive %q, restarting explorer %q", name, got.inconclusive, want.inconclusive)
			continue
		}
		if len(got.inconclusive) > 0 {
			continue // both stopped early; the paths found so far may differ
		}
		if g, w := renderPaths(got), renderPaths(want); !slices.Equal(g, w) {
			t.Errorf("%s: paths differ from the restarting explorer:\n%s\n--- want ---\n%s",
				name, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
		if got.runs != len(got.paths) {
			t.Errorf("%s: %d runs for %d paths", name, got.runs, len(got.paths))
		}
		paths += len(got.paths)
		restarts += want.runs - len(want.paths)
	}
	return paths, restarts
}

// TestExploreMatchesRestartingExplorer holds the enumerator to the one it
// replaced over every IR file in the repository's testdata and the first
// 100 programs per target of the campaign cwfuzz -seed 1 checks.
func TestExploreMatchesRestartingExplorer(t *testing.T) {
	for _, p := range []*accel.Port{gemmini.Port, opengemm.Port} {
		if err := accel.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	var files []string
	for _, glob := range []string{"passes/testdata/*.ir", "lower/testdata/*.ir", "lower/testdata/*/*.ir", "difftest/testdata/*/*.ir"} {
		matches, err := filepath.Glob(filepath.Join("..", glob))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 15 {
		t.Fatalf("found %d testdata modules, want every one: %v", len(files), files)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRestart(t, file, parseIR(t, string(src)))
	}
	for _, target := range []string{"gemmini", "opengemm"} {
		prof, err := irgen.ProfileFor(target)
		if err != nil {
			t.Fatal(err)
		}
		var paths, restarts int
		for i := 0; i < 100; i++ {
			prog, err := irgen.Generate(prof, irgen.DeriveSeed(1, target, i))
			if err != nil {
				t.Fatal(err)
			}
			p, r := checkAgainstRestart(t, fmt.Sprintf("%s program %d", target, i), prog.Module)
			paths, restarts = paths+p, restarts+r
		}
		t.Logf("%s: %d paths in %d runs; restarting, %d runs", target, paths, paths, paths+restarts)
		if restarts == 0 {
			t.Errorf("%s: no program forks, so the comparison shows nothing", target)
		}
	}
}

// fanOut is a function of k branches on independent conditions, each
// launching on its taken side: 2^k paths.
func fanOut(k int) string {
	var b strings.Builder
	b.WriteString("\"builtin.module\"() ({\n  \"fnc.func\"() ({\n    ^(%p: i64):\n")
	b.WriteString("    %one = \"arith.constant\"() {value = 1 : i64} : () -> (i64)\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "    %%k%d = \"arith.constant\"() {value = %d : i64} : () -> (i64)\n", i, i)
		fmt.Fprintf(&b, "    %%c%d = \"arith.cmpi\"(%%p, %%k%d) {predicate = \"eq\"} : (i64, i64) -> (i1)\n", i, i)
		fmt.Fprintf(&b, "    \"scf.if\"(%%c%d) ({\n", i)
		fmt.Fprintf(&b, "      %%s%d = \"accfg.setup\"(%%one) {accelerator = \"acc\", fields = [\"x\"]} : (i64) -> (!accfg.state<\"acc\">)\n", i)
		fmt.Fprintf(&b, "      %%t%d = \"accfg.launch\"(%%s%d) : (!accfg.state<\"acc\">) -> (!accfg.token<\"acc\">)\n", i, i)
		fmt.Fprintf(&b, "      \"accfg.await\"(%%t%d) : (!accfg.token<\"acc\">) -> ()\n", i)
		b.WriteString("      \"scf.yield\"() : () -> ()\n    }, {\n      \"scf.yield\"() : () -> ()\n    }) : (i1) -> ()\n")
	}
	b.WriteString("    \"fnc.return\"() : () -> ()\n  }) {function_type = (i64) -> (), sym_name = \"main\"} : () -> ()\n}) : () -> ()\n")
	return b.String()
}

// TestExplorePathCap: 2^8 paths is exactly the cap and explores in full,
// 2^9 is past it and stops inconclusive — on both explorers.
func TestExplorePathCap(t *testing.T) {
	for _, tc := range []struct {
		k            int
		inconclusive bool
	}{{8, false}, {9, true}} {
		m := parseIR(t, fanOut(tc.k))
		paths, _ := checkAgainstRestart(t, fmt.Sprintf("fan-out %d", tc.k), m)
		fp := exploreFunc(m.Funcs()[0])
		if got := len(fp.inconclusive) > 0; got != tc.inconclusive {
			t.Errorf("fan-out %d: inconclusive %v (%q), want %v", tc.k, got, fp.inconclusive, tc.inconclusive)
		}
		if !tc.inconclusive && paths != 1<<tc.k {
			t.Errorf("fan-out %d: %d paths, want %d", tc.k, paths, 1<<tc.k)
		}
		if tc.inconclusive && fp.runs > maxPaths {
			t.Errorf("fan-out %d: %d runs before stopping, want at most %d", tc.k, fp.runs, maxPaths)
		}
	}
}
