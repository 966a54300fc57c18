package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	_ "configwall/internal/dialects/csrops"
	_ "configwall/internal/dialects/memref"
	_ "configwall/internal/dialects/rocc"
	"configwall/internal/ir"
)

// FuzzParse holds the textual IR reader to what every tool that takes a
// file relies on (cwopt, cwfuzz -replay, the corpus): ir.Parse returns an
// error on anything it cannot read and never panics, and a module that
// parses and verifies prints to text that parses back to the same print.
// The seeds are the IR files the repo ships: the pass and lowering test
// inputs and the differential-testing corpus.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{
		"../passes/testdata/*.ir",
		"../lower/testdata/*.ir",
		"../difftest/testdata/corpus/*.ir",
		"../difftest/testdata/layout/*.ir",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files under %s (%v)", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil || ir.Verify(m) != nil {
			return
		}
		text := ir.PrintModule(m)
		back, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not parse back: %v\n%s", err, text)
		}
		if again := ir.PrintModule(back); again != text {
			t.Fatalf("print is not a fixed point of parse:\n%s\n--- reparsed and printed ---\n%s", text, again)
		}
	})
}
