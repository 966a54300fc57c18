package lint

// TestCensus holds the repository's single-owner rules. Each row names a
// job the tree does in one place (one cell ABI, one retry loop, one
// packed-mate rule, one worker pool, ...) and the text a second place would
// show. A rule reads file text line by line, as grep does, comments
// included; two of its clause kinds read Go syntax (a package's direct
// imports, one function's body), and none reads a type.
//
// Every rule has a fixture, testdata/census/<rule name, spaces as "_">: a
// few files laid out on the paths the rule names, each breaking one of its
// clauses. A rule must pass on the module and fail on the module with its
// fixture laid over it, in every clause and on every fixture file.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A censusRule is one rule: its name, why it holds, and its clauses.
type censusRule struct {
	name    string
	reason  string
	clauses []clause
}

// A clause returns the places in a tree that break it, each spelled
// "path:line:text" as grep -rn spells a line, or "path: message".
type clause interface {
	check(t tree) []string
}

// A tree is a set of files by slash path relative to its root.
type tree struct {
	paths []string // sorted
	src   map[string][]byte
}

// exempt are the two paths no rule reads: this file, whose patterns match
// the rules that scan test files, and the fixtures, which break every rule.
var exempt = map[string]bool{
	"internal/lint/census_test.go":  true,
	"internal/lint/testdata/census": true,
}

// loadTree reads every file under root but .git and the exempt paths.
func loadTree(root string) (tree, error) {
	t := tree{src: map[string][]byte{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if exempt[rel] || d.Name() == ".git" {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		t.src[rel], err = os.ReadFile(p)
		return err
	})
	t.paths = slices.Sorted(maps.Keys(t.src))
	return t, err
}

// with returns t with the files of o laid over it: added, or replacing the
// file of the same path.
func (t tree) with(o tree) tree {
	src := maps.Clone(t.src)
	maps.Copy(src, o.src)
	return tree{paths: slices.Sorted(maps.Keys(src)), src: src}
}

// under returns the paths of t at or below p ("." is the whole tree).
func (t tree) under(p string) []string {
	var out []string
	for _, q := range t.paths {
		if p == "." || q == p || strings.HasPrefix(q, p+"/") {
			out = append(out, q)
		}
	}
	return out
}

// kind is the set of files a grep reads.
type kind int

const (
	code  kind = iota // .go files but _test.go ones
	goAll             // every .go file
	text              // every file
)

func (k kind) has(p string) bool {
	switch k {
	case code:
		return strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go")
	case goAll:
		return strings.HasSuffix(p, ".go")
	}
	return true
}

// A grep holds the lines matching re under some paths to a count: none,
// unless n says otherwise.
type grep struct {
	in     []string // files, or directories read to the bottom
	files  kind
	re     string
	strip  string // removed from a matching line before re is matched again
	allow  string // a hit "path:line:text" this matches is no hit
	n      int    // hits: exactly n, or at most n with atMost
	atMost bool
	each   []string // each matches some hit
}

func (g grep) check(t tree) []string {
	re := regexp.MustCompile(g.re)
	parsed, _ := syntax.Parse(g.re, syntax.Perl)
	must := literals(parsed) // a file holding none of these has no hit
	strip := regexp.MustCompile(g.strip)
	allow := regexp.MustCompile(g.allow)
	var bad, hits []string
	for _, in := range g.in {
		paths := t.under(in)
		if len(paths) == 0 {
			bad = append(bad, in+": no such file or directory")
		}
		for _, p := range paths {
			src := t.src[p]
			if !g.files.has(p) || !slices.ContainsFunc(must, func(l string) bool { return bytes.Contains(src, []byte(l)) }) {
				continue
			}
			for i, line := range strings.Split(string(src), "\n") {
				if !re.MatchString(line) || g.strip != "" && !re.MatchString(strip.ReplaceAllString(line, "")) {
					continue
				}
				if hit := fmt.Sprintf("%s:%d:%s", p, i+1, line); g.allow == "" || !allow.MatchString(hit) {
					hits = append(hits, hit)
				}
			}
		}
	}
	if g.n == 0 {
		return append(bad, hits...)
	}
	if len(hits) > g.n || len(hits) < g.n && !g.atMost {
		want := strconv.Itoa(g.n)
		if g.atMost {
			want = "at most " + want
		}
		bad = append(bad, fmt.Sprintf("%s: %d lines match %s, want %s", strings.Join(g.in, " "), len(hits), g.re, want))
		return append(bad, hits...)
	}
	for _, e := range g.each {
		if !slices.ContainsFunc(hits, regexp.MustCompile(e).MatchString) {
			bad = append(bad, fmt.Sprintf("%s: no line matching %s matches %s", strings.Join(g.in, " "), g.re, e))
		}
	}
	if len(bad) > 0 {
		bad = append(bad, hits...)
	}
	return bad
}

// literals returns strings one of which every match of re contains: at
// worst only the empty string.
func literals(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return literals(re.Sub[0])
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			if l := literals(sub); !slices.Contains(l, "") {
				return l
			}
		}
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			all = append(all, literals(sub)...)
		}
		return all
	}
	return []string{""}
}

// noImport holds that no package in pkgs imports path: the imports of its
// non-test files, which go list prints as .Imports.
type noImport struct {
	pkgs []string // directories
	path string
}

func (c noImport) check(t tree) []string {
	var bad []string
	fset := token.NewFileSet()
	for _, dir := range c.pkgs {
		n := 0
		for _, p := range t.under(dir) {
			if path.Dir(p) != dir || !code.has(p) {
				continue
			}
			n++
			f, err := parser.ParseFile(fset, p, t.src[p], parser.ImportsOnly)
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			for _, im := range f.Imports {
				if v, _ := strconv.Unquote(im.Path.Value); v == c.path {
					bad = append(bad, fmt.Sprintf("%s:%d:import %s", p, fset.Position(im.Pos()).Line, im.Path.Value))
				}
			}
		}
		if n == 0 {
			bad = append(bad, dir+": no Go files")
		}
	}
	return bad
}

// funcBody holds that no line of the function fn in file matches re: its
// text from the func keyword to the closing brace.
type funcBody struct {
	file, fn, re string
}

func (c funcBody) check(t tree) []string {
	src, ok := t.src[c.file]
	if !ok {
		return []string{c.file + ": no such file"}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, c.file, src, parser.SkipObjectResolution)
	if err != nil {
		return []string{err.Error()}
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Name.Name != c.fn {
			continue
		}
		re := regexp.MustCompile(c.re)
		from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
		var bad []string
		for i, line := range strings.Split(string(src[from.Offset:to.Offset]), "\n") {
			if re.MatchString(line) {
				bad = append(bad, fmt.Sprintf("%s:%d:%s", c.file, from.Line+i, line))
			}
		}
		return bad
	}
	return []string{fmt.Sprintf("%s: no func %s", c.file, c.fn)}
}

var census = []censusRule{
	{
		name: "cell ABI census",
		reason: "One cell ABI (DESIGN.md §1): internal/core lays programs out and starts them; " +
			"nothing else outside the compiler, the simulator and the frozen bench/ may call " +
			"codegen.Compile or write sp.",
		clauses: []clause{
			grep{in: []string{"cmd", "internal", "examples", "configwall.go"}, re: `codegen\.Compile\(|riscv\.SP\]`, allow: `^internal/(core|codegen|sim)/`},
		},
	},
	{
		name: "retry loop census",
		reason: "One retry loop (DESIGN.md §11): only the client parses a Retry-After hint " +
			"(internal/serve/client.go) and only the loop consumes it (internal/serve/retry.go); " +
			"fault/ injects them. A second reader is a second backoff policy.",
		clauses: []clause{
			grep{in: []string{"cmd", "internal"}, re: `\.RetryAfter\b`, allow: `^internal/(serve/(client|retry)\.go|fault/)`},
		},
	},
	{
		name: "port census",
		reason: "One table per accelerator (DESIGN.md §1, \"The configuration port\"): accel.Port is " +
			"the only description of a configuration interface. A device package imported outside " +
			"the models, the target/workload/profile constructors, Table 1 and the frozen bench/ is " +
			"a second description starting; so is a third walk over accfg ops (the lowering and " +
			"StripAccfgTypes are the two).",
		clauses: []clause{
			grep{in: []string{"."}, re: `"configwall/internal/accel/(gemmini|opengemm)"`, allow: `^(internal/(accel|core|workload|irgen)/|cmd/cwbench/|bench/)`},
			grep{in: []string{"internal/lower", "examples"}, re: `case accfg.OpAwait`, n: 2, atMost: true},
		},
	},
	{
		name: "scf layout census",
		reason: "One owner for a loop's layout (DESIGN.md §1, \"Structured control flow\"): carried " +
			"value i is operand 3+i, body argument 1+i, yield operand i and result i, and only the " +
			"scf.For/scf.If views index them. A hand-spelled offset, an \"scf.…\" literal or a " +
			"private scf_Op name outside the dialect is a second owner.",
		clauses: []clause{
			grep{in: []string{"."}, re: `Operand\(3 ?\+|NumOperands\(\) ?- ?3|Arg\(1 ?\+|"scf\.(for|if|yield)"|scf_Op`, allow: `^internal/dialects/(scf|accfg)/`},
		},
	},
	{
		name: "packed-mate census",
		reason: "One rule for a packed mate (DESIGN.md §9, \"The abstract domain\"): what a setup's " +
			"write packs into a field it does not carry is analysis.PackedMate's to say, and the " +
			"lowering and the static checker are its only callers. The known-fields engine lives " +
			"in internal/analysis, and only applySetup and havoc read a port's mates.",
		clauses: []clause{
			grep{in: []string{"."}, re: `passes\.(AnalyzeFields|MayWrite|FieldStates)|port\.Mates\(`, allow: `^internal/analysis/state\.go:`},
			grep{in: []string{"."}, re: `PackedMate\(`, allow: `func PackedMate\(`, n: 2, each: []string{`^internal/lower/`, `^internal/analysis/`}},
		},
	},
	{
		name: "device memory census",
		reason: "One writable view per device store (DESIGN.md §1, \"Device models\"): the models, " +
			"the MAC kernel and the launch memo read A, B and D through mem.View, which marks " +
			"nothing, and only the three C-row stores take mem.Region, which marks pages dirty and " +
			"gives lines new write versions: the two models' and the memo's replay of a recorded " +
			"launch, which must move them as the model's own stores would. A fourth Region in " +
			"internal/accel is a read that throws away every kept B tile and every version-kept " +
			"operand image.",
		clauses: []clause{
			grep{in: []string{"internal/accel"}, re: `\.Region\(`, n: 3, each: []string{
				`^internal/accel/gemmini/gemmini\.go:.*crow := mm\.Region\(`,
				`^internal/accel/opengemm/opengemm\.go:.*crow := mm\.Region\(`,
				`^internal/accel/memo\.go:.*out = out\[copy\(mm\.Region\(`,
			}},
		},
	},
	{
		name: "launch memo census",
		reason: "The differential oracle computes every launch (DESIGN.md §1, \"Device models\"): " +
			"its machines are its own, and a launch replayed from a memo would make its " +
			"ref-vs-fast comparison vacuous on the device. Only a Runner's cells go through " +
			"accel.LaunchMemo.",
		clauses: []clause{
			grep{in: []string{"internal/difftest"}, files: text, re: `LaunchMemo|Footprint|\.Wrap\(`},
		},
	},
	{
		name: "family memo census",
		reason: "One compile path, shared only inside a Runner (DESIGN.md §1, \"Concurrent " +
			"runner\"): Compile, Run, RunExperiment and the oracle build every cell fresh, and " +
			"Runner.compute is the one caller that hands the runner's family memo to the engine. " +
			"The oracle's pass tree shares the fork rule (ir.SharedPrefix) and nothing else; a " +
			"Runner in it would resume one pipeline from another's module and check nothing. A " +
			"family's tails (a sibling's Result taken at the lowering) are keyed by derivations, " +
			"the passes ir.PassManager.Changed names: both live in runner.go and in engine.go's " +
			"compile and run only, and the oracle, which must lower and run every pipeline " +
			"itself, names neither the tail API nor the change record. Each job is done once: a " +
			"pipeline resumes by ir.PassManager.RunSpan on one manager (no Split), the goroutine " +
			"that creates a runner cell leads it (no sync.Once in runner.go), and Figures 10 and " +
			"11 share one PairedRow.",
		clauses: []clause{
			grep{in: []string{"internal/difftest"}, files: text, re: `NewRunner|FamilyHits|FamilyMisses`},
			grep{in: []string{"internal/difftest"}, files: text, re: `TailHits|tailKey|\bderivation|\.share\(|\.reach\(|\bChanged\b`},
			grep{in: []string{"."}, re: `\btailKey\b|\bderivation\b|\.(share|reach|tail)\(`, allow: `^internal/core/(runner|engine)\.go:`},
			grep{in: []string{"."}, re: `\.Changed\b`, allow: `^internal/(ir/pass|core/(runner|engine))\.go:`},
			grep{in: []string{"internal/core"}, re: `\br\.families\b`, allow: `r\.families\.Stats\(\)`, n: 1, each: []string{
				`^internal/core/runner\.go:.*runExperiment\(e, opts, r\.launches, r\.families\)`,
			}},
			grep{in: []string{"internal/core"}, re: `newFamilyMemo\(\)`, allow: `func newFamilyMemo`, n: 1},
			grep{in: []string{"."}, re: `ir\.SharedPrefix\(`, allow: `^internal/(core/runner|difftest/difftest)\.go:`},
			grep{in: []string{"internal/ir"}, files: text, re: `func \(pm \*PassManager\) Split`},
			grep{in: []string{"internal/core/runner.go"}, files: text, re: `sync\.Once`},
			grep{in: []string{"."}, files: text, re: `Fig1[01]Row`, allow: `^[^:]*\.md:`},
		},
	},
	{
		name: "one worker pool census",
		reason: "One worker pool (DESIGN.md §1, \"Concurrent runner\"): RunAll, the sweep " +
			"endpoint, cwfuzz and LoadGen all fan out through core.ParallelEach, whose workers " +
			"claim their own next index from one atomic counter. No private pool comes back, and " +
			"no dispatcher channel comes back into the one pool.",
		clauses: []clause{
			grep{in: []string{"."}, re: `sync\.WaitGroup`, allow: `^(internal/core/runner\.go:|bench/)`},
			funcBody{file: "internal/core/runner.go", fn: "ParallelEach", re: `\bchan\b`},
		},
	},
	{
		name: "in-place read census",
		reason: "The IR is read in place (DESIGN.md §1, \"The IR core\"): the core, the static " +
			"analysis, the lowering and codegen step through NumX()/X(i), never through a " +
			"snapshot of an operand, result, argument, use or op list or of a setup's fields or " +
			"field names. A snapshot there is an allocation per op per pass, or per path, back. " +
			"The passes, some of which mutate the operand, op or field list they walk, never " +
			"snapshot a result, argument or use list; a use list has no snapshot accessor at all.",
		clauses: []clause{
			grep{in: []string{"internal/ir", "internal/analysis", "internal/codegen", "internal/lower"}, re: `\.(Operands|Results|Args|Uses|Ops|Fields|FieldNames)\(\)`},
			grep{in: []string{"internal/passes"}, re: `\.(Results|Args|Uses)\(\)`},
		},
	},
	{
		name: "prediction census",
		reason: "No prediction tier: no caller asked for a fidelity once the search client went, " +
			"and on cwbench's 28-cell grid simulating everything is both faster and exact. " +
			"Neither the package, the runner's predictor seam, its counter nor the sweep body's " +
			"fidelity fields come back.",
		clauses: []clause{
			grep{in: []string{"."}, files: goAll, re: `internal/analytic|\bSetPredictor\b|\bRunTopK\b|\bTopKByPredictedPerf\b|\bPredictions\b|json:"(fidelity|top_k)[",]`},
		},
	},
	{
		name: "simulator census",
		reason: "One copy of each simulator rule (DESIGN.md §6, §8): the fast engine has one " +
			"semantics switch (no execPlain), the device is its port plus WriteConfig, Launch and " +
			"the optional footprint the launch memo keys by (no descriptive methods besides the " +
			"port), and the pool holds the arena, not a machine (no execContext). The two " +
			"sync.Pools outside the frozen bench/ are the cell arena and the responder. The oracle " +
			"keeps its per-check scratch (the 1 MiB sandbox, the reference image and launch " +
			"buffers, the trace buffer) on a mutex-guarded free list, difftest.scratches, and no " +
			"sync.Pool: a pool is emptied by every GC, and the oracle ran 170-210 GCs a second, so " +
			"checks kept making the sandbox again. Isolation between checks rests on the same " +
			"Memory.Reset contract the eight runs of one check already rest on (DESIGN.md §5, " +
			"\"The sandbox\").",
		clauses: []clause{
			grep{in: []string{"."}, re: `\bexecPlain\b|\bexecContext\b`},
			grep{in: []string{"."}, re: `^(func \([^)]*\) |\s+)(IsFence|StatusID|IsLaunch|ConfigBytes|Scheme)\(`},
			grep{in: []string{"."}, re: `sync\.Pool\{`, allow: `^bench/`, n: 2, each: []string{
				`^internal/core/engine\.go:.*arenas = sync\.Pool\{`,
				`^internal/serve/respond\.go:.*responderPool = sync\.Pool\{`,
			}},
			grep{in: []string{"internal/difftest"}, files: goAll, re: `^[^/]*\bsync\.Pool\b`},
			grep{in: []string{"internal/difftest/difftest.go"}, files: text, re: `^var scratches struct \{$`, n: 1},
		},
	},
	{
		name: "search census",
		reason: "No configuration search: the per-instance question has at most eight arms, and " +
			"cwbench and a /v1/sweep answer it exhaustively. Neither the search client nor what " +
			"only it read (the registry's size grid, the decoded retry call) comes back.",
		clauses: []clause{
			grep{in: []string{"."}, files: goAll, re: `internal/tune|\bcwtune\b|\bDefaultSizeGrid\b|\bregistrySizes\b|\bRunWithRetry\b`},
		},
	},
	{
		name: "sweep census",
		reason: "No sweep store in cwbench (DESIGN.md §1, \"Persistent experiment store\"): the " +
			"whole evaluation is 28 cells that render in under a second, so cwbench runs in " +
			"memory and the store serves daemon restarts. Neither the grid split nor the store " +
			"listing comes back.",
		clauses: []clause{
			grep{in: []string{"."}, files: goAll, re: `\bcore\.Shard\b|\bShardExperiments\b|\bprecomputeShard\b|\blistStore\b`},
			grep{in: []string{"cmd/cwbench"}, files: goAll, re: `"configwall/internal/store"`},
		},
	},
	{
		name: "warm census",
		reason: "No warm at boot (DESIGN.md §7, \"Boot, drain, observability\"): the runner " +
			"already loads a stored cell on its first memory miss, so a daemon boots without " +
			"reading its store and holds only the cells it was asked for. Neither the enumeration " +
			"nor the preload comes back, and the serving layer does not reach past the runner to " +
			"the store.",
		clauses: []clause{
			grep{in: []string{"."}, re: `WarmFromStore|Preload\(|\.Each\(|store\.Entry|StoreEntry`},
			noImport{pkgs: []string{"internal/serve"}, path: "configwall/internal/store"},
		},
	},
	{
		name: "compile-log census",
		reason: "A cell's Result is its measurements (DESIGN.md §1, \"The IR core\"): the " +
			"per-pass op-count log is no field of Result, the pass manager keeps no log while it " +
			"runs a pipeline, and only the command-line tools and the examples ask for one, " +
			"through PassManager.Log on a run of their own.",
		clauses: []clause{
			grep{in: []string{"."}, re: `PassStats`},
			grep{in: []string{"internal/ir/pass.go"}, files: text, re: `^[[:space:]]+Stats[[:space:]]|\bstatLine\b|\bappendPadded\b`},
			grep{in: []string{"."}, re: `\.Log\(`, strip: `math\.Log\(`, allow: `^(cmd|examples)/`},
		},
	},
	{
		name: "cell-name census",
		reason: "Every cell is a verified cell (DESIGN.md §7, \"Options census\"): no option skips " +
			"golden verification, and no CLI or facade export selects the simulator engine. The " +
			"engine stays a RunOptions field and a wire key; the frozen bench/ reads it. A " +
			"timeline is not part of a cell's name: only the machine, the oracle's runs and the " +
			"line that hands Compiled.Execute's trace parameter to the machine name RecordTrace, " +
			"and no wire field asks for one.",
		clauses: []clause{
			grep{in: []string{"."}, re: `SkipVerify|skip_verify|skipverify`, allow: `^bench/`},
			noImport{pkgs: []string{".", "cmd/cwbench", "cmd/cwload", "cmd/cwsim"}, path: "configwall/internal/sim"},
			grep{in: []string{"."}, re: `RecordTrace`, allow: `^internal/(sim|difftest)/|^internal/core/engine\.go:[0-9]+:[[:space:]]+mc\.RecordTrace = trace$`},
			grep{in: []string{"."}, re: `record_trace`},
		},
	},
	{
		name: "memory-traffic census",
		reason: "The simulated memory counts no bytes (DESIGN.md §8): the paper's figures read " +
			"configuration counters and the model's analytic BWMemory, never a simulated traffic " +
			"total. No counter and no bulk accounting comes back; ResetCounters stays an empty " +
			"method only because the frozen bench/ still calls it.",
		clauses: []clause{
			grep{in: []string{"."}, files: goAll, re: `\b(BytesRead|BytesWritten|AddTraffic)\b`},
			grep{in: []string{"."}, files: goAll, re: `\bResetCounters\b`, allow: `^(bench/|internal/mem/mem\.go:)`},
			grep{in: []string{"internal/mem/mem.go"}, files: text, re: `^func \(m \*Memory\) ResetCounters\(\) \{\}$`, n: 1},
		},
	},
}

func TestCensus(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	module, err := loadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join("testdata", "census")
	named := map[string]bool{}
	for _, r := range census {
		named[strings.ReplaceAll(r.name, " ", "_")] = true
	}
	dirs, err := os.ReadDir(fixtures)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !named[d.Name()] {
			t.Errorf("%s/%s names no rule", fixtures, d.Name())
		}
	}
	for _, r := range census {
		t.Run(r.name, func(t *testing.T) {
			var bad []string
			for _, c := range r.clauses {
				bad = append(bad, c.check(module)...)
			}
			if len(bad) > 0 {
				t.Errorf("%s\n\n%s", strings.Join(bad, "\n"), r.reason)
			}

			dir := filepath.Join(fixtures, strings.ReplaceAll(r.name, " ", "_"))
			fixture, err := loadTree(dir)
			if err != nil || len(fixture.paths) == 0 {
				t.Fatalf("no fixture in %s: %v", dir, err)
			}
			broken := module.with(fixture)
			var reported []string
			for i, c := range r.clauses {
				bad := c.check(broken)
				if len(bad) == 0 {
					t.Errorf("clause %d passes with %s laid over the module", i, dir)
				}
				reported = append(reported, bad...)
			}
			for _, p := range fixture.paths {
				if !slices.ContainsFunc(reported, func(s string) bool { return strings.HasPrefix(s, p+":") }) {
					t.Errorf("%s/%s breaks no clause", dir, p)
				}
			}
		})
	}
}
