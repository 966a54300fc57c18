package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this build")

const stdoutGolden = "testdata/stdout.golden"

// runMainEnv, when set, makes the test binary run cwchaos's main instead of
// its tests: how TestStdoutGolden runs the command as a process.
const runMainEnv = "CWCHAOS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutGolden holds the report of `cwchaos -seed 1` — the phase
// summaries, the fault schedule and the invariant verdict — to
// testdata/stdout.golden byte for byte. The report is a function of the
// seed alone (ports, directories and wall times go to stderr), so a change
// that is not meant to move a fault, a retry or a verdict leaves the file
// as it is. Rewrite it with -update only for a change that is, and say
// which lines moved and why.
func TestStdoutGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-seed", "1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("cwchaos: %v\n%s", err, stderr.Bytes())
	}
	if *update {
		if err := os.WriteFile(stdoutGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(stdoutGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("stdout differs from %s at line %d:\n got %s\nwant %s", stdoutGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, %s has %d", len(gl), stdoutGolden, len(wl))
	}
}
