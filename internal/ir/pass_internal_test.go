package ir

import "testing"

// TestSharedPrefix pins the fork rule the oracle's pass tree and the
// runner's family memo both use: the longest common run of pass names, cut
// before the first lower-* pass of either pipeline.
func TestSharedPrefix(t *testing.T) {
	for _, tc := range []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"cse", "lower-accfg"}, []string{"canonicalize", "cse", "lower-accfg"}, 0},
		{[]string{"canonicalize", "cse", "licm"}, []string{"canonicalize", "cse", "dedup"}, 2},
		{[]string{"canonicalize", "cse"}, []string{"canonicalize", "cse", "licm"}, 2},
		{[]string{"cse", "lower-accfg", "licm"}, []string{"cse", "lower-accfg", "licm"}, 1},
		{[]string{"lower-accfg"}, []string{"lower-accfg"}, 0},
		{[]string{"cse", "lowering"}, []string{"cse", "lowering"}, 2}, // not lower-*
	} {
		if got := SharedPrefix(tc.a, tc.b); got != tc.want {
			t.Errorf("SharedPrefix(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := SharedPrefix(tc.b, tc.a); got != tc.want {
			t.Errorf("SharedPrefix(%q, %q) = %d, want %d", tc.b, tc.a, got, tc.want)
		}
	}
}
