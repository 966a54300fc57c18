// Command cwlint runs the repo-specific static checks (internal/lint) over
// package directories:
//
//	cwlint ./...              # whole tree (the CI lint job)
//	cwlint ./internal/sim     # one package
//	cwlint -list              # describe the analyzers
//
// Checks: hotpathalloc (no allocation-inducing constructs in
// //cwlint:hotpath functions) and mapiter (never write output while ranging
// over a map). Findings print as file:line:col: [analyzer] message
// and a non-empty report exits 1. Test files and testdata directories are
// out of scope; suppress an individual line with a //cwlint:ignore comment
// stating why.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"configwall/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the registered analyzers")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expand(args)
	if err != nil {
		fatal("%v", err)
	}
	if len(dirs) == 0 {
		fatal("no Go packages match %s", strings.Join(args, " "))
	}

	loader, err := lint.NewLoader(dirs[0])
	if err != nil {
		fatal("%v", err)
	}
	failed := false
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			fatal("%v", err)
		}
		for _, f := range lint.Lint(p) {
			fmt.Println(f)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// expand resolves the argument patterns to package directories: a trailing
// /... walks the tree (skipping testdata, hidden and vendor directories); a
// plain path names one directory. Only directories containing at least one
// non-test Go file qualify.
func expand(args []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		ok, err := hasGoFiles(dir)
		if err != nil || !ok || seen[dir] {
			return err
		}
		seen[dir] = true
		dirs = append(dirs, dir)
		return nil
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		if root == "" || root == "."+string(filepath.Separator) {
			root = "."
		}
		if !recursive {
			if err := add(filepath.Clean(arg)); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwlint: "+format+"\n", args...)
	os.Exit(1)
}
