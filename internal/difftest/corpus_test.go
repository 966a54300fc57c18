package difftest_test

// Corpus replay: every module under testdata/corpus/ re-runs through the
// full oracle on every test invocation, forever. cwfuzz writes minimized
// failing modules here (named <accelerator>-s<seed>.ir — the seed recovers
// the exact buffer contents and scalar input); once the underlying bug is
// fixed, the file stays as a permanent regression test. The checked-in
// anchors are minimized representative programs proving the replay path.

import (
	"path/filepath"
	"testing"

	"configwall/internal/difftest"
)

// TestCorpusNameRoundTrip pins the shared naming convention, including
// negative seeds and rejection of malformed names.
func TestCorpusNameRoundTrip(t *testing.T) {
	for _, seed := range []int64{0, 42, -5712018378018755734} {
		name := difftest.CorpusName("gemmini", seed)
		accel, got, ok := difftest.ParseCorpusName(name)
		if !ok || accel != "gemmini" || got != seed {
			t.Fatalf("round trip of %q failed: %q %d %v", name, accel, got, ok)
		}
	}
	for _, bad := range []string{"gemmini.ir", "gemmini-s12junk.ir", "gemmini-s12", "-s5.ir"} {
		if accel, seed, ok := difftest.ParseCorpusName(bad); ok {
			t.Errorf("malformed name %q parsed as (%q, %d)", bad, accel, seed)
		}
	}
}

func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus is empty — the anchor files are missing")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			rep, err := difftest.Replay(file, difftest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Invalid {
				t.Fatalf("baseline invalid on corpus module: %s", rep.InvalidReason)
			}
			for _, d := range rep.Divergences {
				t.Errorf("corpus regression: %s", d)
			}
		})
	}
}

// TestCorpusStaticVerdicts replays every corpus module in audit mode (always
// co-simulate, then cross-check) and asserts the static checker's soundness
// contract on real-world minimized programs: the unmutated pipelines must
// never be statically rejected (zero false positives), and the static
// verdict must never contradict the dynamic oracle.
func TestCorpusStaticVerdicts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus is empty — the anchor files are missing")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			rep, err := difftest.Replay(file, difftest.Options{Static: difftest.StaticAudit})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Invalid {
				t.Fatalf("baseline invalid on corpus module: %s", rep.InvalidReason)
			}
			if len(rep.Static) == 0 {
				t.Fatal("audit mode produced no static verdicts")
			}
			for _, s := range rep.Static {
				if s.Rejected {
					t.Errorf("%s: static false positive on unmutated pipeline: %s", s.Pipeline, s.Verdict)
				}
				if s.Disagree {
					t.Errorf("%s: static/dynamic disagreement: %s", s.Pipeline, s.Verdict)
				}
				if s.SimSkipped {
					t.Errorf("%s: audit mode must always co-simulate", s.Pipeline)
				}
			}
		})
	}
}

// TestStaticsReachingTheStackAreInvalid replays a module whose one
// memref.alloc (120 000 x i64 from 0x7800) ends past the oracle's stack base
// and which stores to its last element. That store lands in [stackBase, …),
// the one region no comparison reads, so before the layout check moved into
// the seam (core.CompileModule) this replayed as clean. The file is not
// under corpus/, which TestCorpusReplay expects clean.
func TestStaticsReachingTheStackAreInvalid(t *testing.T) {
	rep, err := difftest.Replay(filepath.Join("testdata", "layout", "opengemm-s1.ir"), difftest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "baseline compile-error: static allocations exceed simulated memory: [0x7800, 0xf1e00) reaches the stack at 0xf0000"
	if !rep.Invalid || rep.InvalidReason != want {
		t.Errorf("invalid=%v reason=%q divergences=%v, want invalid with reason %q", rep.Invalid, rep.InvalidReason, rep.Divergences, want)
	}
}
