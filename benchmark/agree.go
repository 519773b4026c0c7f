package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadSet reads every result file of a directory and returns, per
// workload and end-to-end metric, the values its runs reported.
func loadSet(spec *benchSpec, dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.seed*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string]map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == traceOn {
			continue
		}
		if r.SF != defaultSF || r.Seconds != float64(spec.RunSeconds) {
			return nil, fmt.Errorf("%s: run at sf %g for %g s; only sf %g for %d s is comparable", f, r.SF, r.Seconds, defaultSF, spec.RunSeconds)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d failed)", f, r.Failed, r.Attempted)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for _, m := range spec.EndToEnd {
			set[r.Workload][m.Name] = append(set[r.Workload][m.Name], r.Metrics[m.Name].Value)
		}
	}
	for _, w := range workloads {
		if set[w.name] == nil {
			return nil, fmt.Errorf("%s: no end-to-end result for %s", dir, w.name)
		}
	}
	return set, nil
}

// agreeSets prints, for every workload and end-to-end metric, the two
// sets' medians, how much worse the second is, and the bound; it
// reports whether every difference is within its bound.
func agreeSets(out io.Writer, spec *benchSpec, dirA, dirB string) (bool, error) {
	a, err := loadSet(spec, dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(spec, dirB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-18s %-17s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			x, y := median(a[w.name][m.Name]), median(b[w.name][m.Name])
			worse := ratio(y-x, x)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || x == 0 {
				verdict, ok = "  BREACH", false
			}
			fmt.Fprintf(out, "%-18s %-17s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n", w.name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
