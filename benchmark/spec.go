package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// specPath is BENCHMARK.json at the repository root, seen from this
// directory. It is the only place a metric's name, unit, direction and
// bound, a workload's name and the run length are written: the program
// reads them from it when it starts, so it runs from this directory
// (run.sh changes into it).
const specPath = "../BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, key for key.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json, refuses keys the driver does not know,
// applies the driver's limits and checks the file against the code: the
// same workloads in the same order, and a layer for every per-layer
// metric.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, over 64 KiB", path, len(raw))
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if got, want := fmt.Sprint(s.workloadNames()), fmt.Sprint(workloadNames()); got != want {
		return nil, fmt.Errorf("%s: workloads %s, the program has %s", path, got, want)
	}
	for _, m := range s.PerLayer {
		if _, ok := layerKey(m.Name); !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s has no entry in the layers table", path, m.Name)
		}
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func specByName(specs []metricSpec, name string) *metricSpec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validate applies the limits the benchmark driver applies to
// BENCHMARK.json, so a bad file fails `go test` and not the driver.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := check(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				return fmt.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if i == 1 && m.Bound != 0 {
				return fmt.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
			if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && i == 0 {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s end-to-end metric")
	}
	return nil
}

// layer is the interaction table BENCHMARK.json has no key for: the
// module a per-layer metric belongs to, and the end-to-end metric and
// workload a change to that module should move.
type layer struct {
	module string
	moves  string
}

// classNames are the request classes a per-class metric variant is
// suffixed with.
var classNames = []string{"q1", "q2", "q3", "orders", "point", "entity"}

// layerKey is the row of the layers table a per-layer metric reads; a
// per-class variant (exec.run_ms.q2) shares its base metric's.
func layerKey(name string) (string, bool) {
	if _, ok := layers[name]; ok {
		return name, true
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		for _, c := range classNames {
			if _, ok := layers[name[:i]]; ok && name[i+1:] == c {
				return name[:i], true
			}
		}
	}
	return "", false
}

const (
	wide    = "wide_docs"
	grouped = "grouped_analytics"
	sorted  = "sorted_baseline"
	entity  = "entity_serving"
)

var layers = map[string]layer{
	// xmlpub: FLWR -> SQL + tag plan, and the constant-space tagger.
	"xmlpub.compile_us":         {"xmlpub", "publish_p50_ms on " + entity},
	"xmlpub.tag_ns_per_row":     {"xmlpub", "publish_p50_ms, xml_mb_per_s on " + wide + "; none on " + grouped},
	"xmlpub.tag_mb_per_s":       {"xmlpub", "xml_mb_per_s on " + wide},
	"xmlpub.tag_allocs_per_row": {"xmlpub", "allocs_per_req on " + wide},
	"xmlpub.tag_share":          {"xmlpub", "publish_p50_ms on " + wide},
	// internal/sql, internal/bind + internal/opt, the plan cache.
	"sql.parse_us":        {"internal/sql", "publish_p50_ms on " + entity + "; none elsewhere"},
	"bind_opt.us":         {"internal/bind+internal/opt", "publish_p50_ms on " + entity + "; none elsewhere"},
	"compile.share":       {"internal/sql+bind+opt", "publish_p50_ms on " + entity},
	"plancache.hit_ratio": {"gapplydb plan cache", "publish_p50_ms on " + entity},
	// internal/exec, seen through db.Query, Result.Elapsed and Result.Stats.
	"exec.run_ms":                   {"internal/exec", "publish_p50_ms, req_per_s on " + grouped + " and " + sorted + "; at most its share on " + wide},
	"exec.share":                    {"internal/exec", "publish_p50_ms on " + grouped + " and " + sorted},
	"exec.rows_scanned_per_out_row": {"internal/exec", "req_per_s on " + sorted + " (repeated joins) and " + entity + " (no key seek)"},
	"exec.groups_per_req":           {"internal/exec", "none; the input property exec.ns_per_group is read against"},
	"exec.ns_per_group":             {"internal/exec", "publish_p50_ms, req_per_s on " + grouped},
	"exec.alloc_kb_per_req":         {"internal/exec", "alloc_mb_per_req on " + grouped + " and " + sorted},
	"exec.allocs_per_out_row":       {"internal/exec", "allocs_per_req on " + grouped + " and " + sorted},
	"exec.dop1_over_default":        {"internal/exec", "req_per_s on " + grouped + " (above 1 means parallelism paid)"},
	// gapplydb root: Value -> []any boxing and result materialisation.
	"engine.box_ns_per_row": {"gapplydb", "publish_p50_ms on " + wide},
	"engine.box_share":      {"gapplydb", "publish_p50_ms on " + wide},
	// internal/wire: the row-batch codec and framing.
	"wire.encode_ns_per_row":     {"internal/wire", "publish_p50_ms on " + wide + "; 0 on the XML-mode workloads"},
	"wire.decode_ns_per_row":     {"internal/wire", "publish_p50_ms on " + wide + "; 0 on the XML-mode workloads"},
	"wire.bytes_per_row":         {"internal/wire", "publish_p50_ms on " + wide},
	"wire.decode_allocs_per_row": {"internal/wire", "allocs_per_req on " + wide},
	"wire.share":                 {"internal/wire", "publish_p50_ms on " + wide},
	// internal/server + client: everything the staged layers do not cover.
	"server.residual_ms":            {"internal/server+client", "publish_p50_ms on " + entity},
	"server.residual_share":         {"internal/server+client", "publish_p50_ms on " + entity},
	"server.admission_wait_p95_ms":  {"internal/server", "publish_p95_ms on " + entity},
	"server.busy_rejects":           {"internal/server", "failed on " + entity},
	"server.bytes_streamed_per_req": {"internal/server", "xml_mb_per_s on every workload"},
	"server.lat_p95_ms.high":        {"internal/server", "publish_p95_ms, max_rate_ok_rps on " + entity},
	// What the gated latencies are made of, the tail beside them, and the
	// open loop's rate steps. They are user-visible but ungated: the tail
	// does not repeat within a quarter, and only one workload has steps.
	"publish_p50_ms":           {"load phase", "publish_p50_ms on the workload that has the class"},
	"publish_p95_ms":           {"load phase", "none gated; the tail beside publish_p50_ms on every workload"},
	"lat_p50_ms.low":           {"rate step", "publish_p50_ms on " + entity},
	"lat_p95_ms.low":           {"rate step", "publish_p95_ms on " + entity},
	"lat_p50_ms.mid":           {"rate step", "publish_p50_ms on " + entity},
	"lat_p95_ms.mid":           {"rate step", "publish_p95_ms on " + entity},
	"lat_p50_ms.high":          {"rate step", "publish_p50_ms on " + entity},
	"max_rate_ok_rps":          {"rate step", "publish_p95_ms on " + entity},
	"loadgen.late_p95_ms.low":  {"load generator", "none; how late the generator itself ran"},
	"loadgen.late_p95_ms.mid":  {"load generator", "none; how late the generator itself ran"},
	"loadgen.late_p95_ms.high": {"load generator", "none; how late the generator itself ran"},
	"failed_share":             {"every layer", "failed on every workload"},
	// Go runtime, whole process.
	"runtime.gc_cpu_share":      {"Go runtime", "every latency metric on every workload"},
	"runtime.gc_cycles_per_req": {"Go runtime", "publish_p95_ms on every workload"},
	"runtime.heap_peak_mb":      {"Go runtime", "alloc_mb_per_req on every workload"},
	"runtime.rss_peak_mb":       {"Go runtime", "setup_s on every workload"},
	// Reproduction anchor and the cost of tracing itself.
	"paper.fig8_ratio":     {"paper Figure 8", "none; informational"},
	"trace.overhead_share": {"benchmark", "none; traced over untraced request time, minus 1"},
}
