package ir

import (
	"fmt"
	"testing"
)

// TestStatLineMatchesFmt holds the hand-built PassStats line to the fmt
// format it replaced: the lines are in every stored and served Result, so
// a byte of difference would change cached entries and response bodies.
func TestStatLineMatchesFmt(t *testing.T) {
	names := []string{
		"", "cse", "accfg-remove-empty-setups",
		"exactly-thirty-two-characters-xx",  // no padding
		"accfg-hoist-loop-invariant-fields", // 33: overflows the column
		"a-pass-name-far-longer-than-the-sixty-four-byte-scratch-buffer-it-is-built-in",
		"überholspur", // %-32s pads by runes, not bytes
	}
	counts := []int{0, 7, 46, 999, 1000, 9999, 10000, 1234567, -3}
	for _, name := range names {
		for _, before := range counts {
			for _, after := range counts {
				want := fmt.Sprintf("%-32s ops: %4d -> %4d", name, before, after)
				if got := statLine(name, before, after); got != want {
					t.Fatalf("statLine(%q, %d, %d) = %q, want %q", name, before, after, got, want)
				}
			}
		}
	}
}
