package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// set is one full pass over the workloads: each one's untraced and traced
// result. -compare reads two of them.
type set struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Workloads map[string]setEntry `json:"workloads"`
}

type setEntry struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// runAll runs every workload, untraced then traced, in the fixed order,
// each run in a process of its own so that pools, heap and peak RSS belong
// to one workload. It prints both tables, saves the set and fails when any
// run did.
func runAll(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	s := set{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]setEntry{}}
	var failures []string
	for _, w := range workloads {
		var entry setEntry
		for traced, into := range []*result{&entry.EndToEnd, &entry.PerLayer} {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(traced), "-out", cfg.outDir,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s (trace %d): %v", w.name, traced, err))
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if json.Unmarshal(lines[len(lines)-1], into) != nil {
				failures = append(failures, fmt.Sprintf("%s (trace %d): no result", w.name, traced))
			}
		}
		s.Workloads[w.name] = entry
	}
	printTable(os.Stdout, "end to end (tracing off)", endToEnd, s, func(e setEntry) result { return e.EndToEnd })
	printTable(os.Stdout, "per layer (traced run)", perLayer, s, func(e setEntry) result { return e.PerLayer })

	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("set-seed%d.json", cfg.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("saved", path)
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failures), failures)
	}
	return nil
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, title string, specs []metricSpec, s set, pick func(setEntry) result) {
	fmt.Fprintf(w, "\n%s, seed %d, %g s per run\n%-26s %-7s", title, s.Seed, s.Seconds, "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, spec := range specs {
		fmt.Fprintf(w, "%-26s %-7s", spec.Name, spec.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.6g", pick(s.Workloads[wl.name]).Metrics[spec.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s %-7s", "failed/attempted", "count")
	for _, wl := range workloads {
		r := pick(s.Workloads[wl.name])
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
	}
	fmt.Fprintln(w)
}

func loadSet(path string) (set, error) {
	var s set
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets prints, for every workload and end-to-end metric, both
// sets' values, how much worse the second is as a share of the first, and
// the bound. It fails when a bound is exceeded or either set has an
// incorrect run.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %9s\n", "workload", "metric", "a", "b", "worse", "bound")
	exceeded := 0
	for _, wl := range workloads {
		ea, eb := a.Workloads[wl.name].EndToEnd, b.Workloads[wl.name].EndToEnd
		if !ea.Correct || !eb.Correct {
			fmt.Fprintf(w, "%-12s incorrect run: a failed %d/%d, b failed %d/%d\n", wl.name, ea.Failed, ea.Attempted, eb.Failed, eb.Attempted)
			exceeded++
		}
		for _, spec := range endToEnd {
			va, vb := ea.Metrics[spec.Name].Value, eb.Metrics[spec.Name].Value
			worse := worsening(spec, va, vb)
			verdict := ""
			if worse > *spec.Bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.2f%% %8.4g%%%s\n", wl.name, spec.Name, va, vb, 100*worse, 100**spec.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d comparisons outside their bound", exceeded)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a; negative when
// b is better.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}
