package analysis

// Golden tests for the `cwopt -analyze` report: the rendered flow summary
// of the pass-pipeline testdata modules, and of a partial Gemmini setup
// whose packed mates the lowering re-materializes, must stay byte-stable,
// pinning the abstract domain's canonical value rendering, the packed-mate
// rule and the bounds analysis. Regenerate with:
//
//	go run ./cmd/cwopt -analyze internal/{passes,lower}/testdata/<name>.ir \
//	    > internal/analysis/testdata/<name>.analyze.golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
)

func TestAnalyzeReportGolden(t *testing.T) {
	if err := accel.Register(gemmini.Port); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"passes/testdata/hoist.ir", "passes/testdata/overlap.ir",
		"passes/testdata/sink.ir", "lower/testdata/gemmini-partial.ir"} {
		name := strings.TrimSuffix(filepath.Base(path), ".ir")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", path))
			if err != nil {
				t.Fatal(err)
			}
			got := ReportString(parseIR(t, string(src)))
			wantBytes, err := os.ReadFile(filepath.Join("testdata", name+".analyze.golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(wantBytes) {
				t.Errorf("report drift for %s.ir:\n--- got ---\n%s--- want ---\n%s", name, got, wantBytes)
			}
		})
	}
}

// TestAnalyzeReportDeterministic guards the map-heavy summary against
// iteration-order leaks: two fresh runs must render identically.
func TestAnalyzeReportDeterministic(t *testing.T) {
	m := parsePassTestdata(t, "sink.ir")
	first := ReportString(m)
	for i := 0; i < 8; i++ {
		if got := ReportString(m.Clone()); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}
