package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gapplydb/internal/trace"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailPercentile(150, 95); got != 90 {
		t.Errorf("tailPercentile(150, 95) = %v, want 90: p95 of 150 samples has only 7 beyond it", got)
	}
	if got := tailPercentile(5000, 95); got != 95 {
		t.Errorf("tailPercentile(5000, 95) = %v, want 95", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 0: 0} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestClassMedian(t *testing.T) {
	// 60 fast requests, 38 slower, 2 slow: the pooled median would sit
	// at the edge of the fast class.
	classes := [][]float64{make([]float64, 60), make([]float64, 38), {30, 40}, nil}
	for i := range classes[0] {
		classes[0][i] = 0.2 + 0.001*float64(i)
	}
	for i := range classes[1] {
		classes[1][i] = 2
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	want := math.Pow(median(classes[0]), 0.6) * math.Pow(2, 0.38) * math.Pow(35, 0.02)
	if got := classMedian(classes); !near(got, want) {
		t.Errorf("classMedian = %v, want %v", got, want)
	}
	// A class that slows by a tenth moves it by a tenth of its share.
	for i := range classes[0] {
		classes[0][i] *= 1.1
	}
	if got := classMedian(classes); !near(got, want*math.Pow(1.1, 0.6)) {
		t.Errorf("fast class 10%% slower: classMedian = %v, want %v", got, want*math.Pow(1.1, 0.6))
	}
	if got := classMedian([][]float64{{3, 1, 2}}); !near(got, 2) {
		t.Errorf("one class: classMedian = %v, want its median 2", got)
	}
	if got := classMedian(nil); got != 0 {
		t.Errorf("no samples: classMedian = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []trace.Span{
		{Name: "root", Parent: -1, Start: 0, Dur: 100 * us},
		{Name: "a", Parent: 0, Start: 10 * us, Dur: 30 * us},        // 10..40
		{Name: "b", Parent: 0, Start: 30 * us, Dur: 30 * us},        // 30..60, overlaps a
		{Name: "c", Parent: 0, Start: 90 * us, Dur: 50 * us},        // 90..140, sticks out past root
		{Name: "a.inner", Parent: 1, Start: 15 * us, Dur: 10 * us},  // nested in a
		{Name: "a.inner2", Parent: 1, Start: 20 * us, Dur: 10 * us}, // overlaps a.inner
		{Name: "empty", Parent: 0, Start: 70 * us, Dur: 0},
	}
	want := []time.Duration{
		40 * us, // root: 100 minus the union 10..60 and 90..100
		15 * us, // a: 30 minus the union 15..30
		30 * us, 50 * us, 10 * us, 10 * us, 0,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func take(s *sequence, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a := take(newSequence(w, 7, 500), 400)
		if b := take(newSequence(w, 7, 500), 400); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two request sequences", w.name)
		}
		// A single unkeyed class leaves the seed nothing to choose.
		if len(w.classes) > 1 {
			if c := take(newSequence(w, 8, 500), 400); reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
			}
		}
		counts := make([]int, len(w.classes))
		for _, r := range a {
			counts[r.class]++
			if w.classes[r.class].keyed != (r.key != 0) || r.key > 500 {
				t.Fatalf("%s: class %s got key %d", w.name, w.classes[r.class].name, r.key)
			}
		}
		if w.open {
			if want := []int{400 * mixPoint / mixBlock, 400 * mixEntity / mixBlock, 400 * (mixBlock - mixPoint - mixEntity) / mixBlock}; !reflect.DeepEqual(counts, want) {
				t.Errorf("%s: class mix %v, want %v whatever the seed", w.name, counts, want)
			}
		}
	}
	arr := func(seed int64) []time.Duration { return arrivals(rand.New(rand.NewSource(seed)), 400, 2*time.Second) }
	a := arr(7)
	if !reflect.DeepEqual(a, arr(7)) {
		t.Error("one seed gave two arrival schedules")
	}
	if reflect.DeepEqual(a, arr(8)) {
		t.Error("seeds 7 and 8 gave the same arrival schedule")
	}
	if len(a) != 400 || a[len(a)-1] >= 2*time.Second {
		t.Errorf("%d arrivals over 2 s, last at %v; want 400 inside the step", len(a), a[len(a)-1])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i], a[i-1])
		}
	}
	for _, c := range []struct {
		rps  float64
		dur  time.Duration
		want int
	}{{50, 6 * time.Second, 300}, {200, 6 * time.Second, 1200}, {100, 7333 * time.Millisecond, 750}, {50, 300 * time.Millisecond, 50}} {
		if got := stepRequests(c.rps, c.dur); got != c.want {
			t.Errorf("stepRequests(%v, %v) = %d, want %d: whole mix blocks, at least one", c.rps, c.dur, got, c.want)
		}
	}
}

// mustSpec is BENCHMARK.json as the program reads it.
func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpec(t *testing.T) {
	spec := mustSpec(t)
	// Every row of the layers table is a metric BENCHMARK.json lists.
	used := map[string]bool{}
	for _, m := range spec.PerLayer {
		key, _ := layerKey(m.Name)
		used[key] = true
	}
	for name, l := range layers {
		if !used[name] {
			t.Errorf("layers table names %s, which is not a per-layer metric of BENCHMARK.json", name)
		}
		if l.module == "" || l.moves == "" {
			t.Errorf("%s: no module or no end-to-end metric it should move", name)
		}
	}

	ok := metricSpec{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	layer := metricSpec{Name: "y_ms", Unit: "ms", Better: "lower"}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	many := func(n int, m metricSpec) []metricSpec {
		var out []metricSpec
		for i := 0; i < n; i++ {
			v := m
			v.Name += strings.Repeat("a", i/26) + string(rune('a'+i%26))
			out = append(out, v)
		}
		return out
	}
	with := func(f func(*metricSpec)) []metricSpec { m := ok; f(&m); return []metricSpec{setup, m} }
	build := func(workloads string, e2e, per []metricSpec) *benchSpec {
		s := &benchSpec{RunSeconds: 10, EndToEnd: e2e, PerLayer: per}
		for _, name := range strings.Fields(workloads) {
			s.Workloads = append(s.Workloads, struct {
				Name string `json:"name"`
				Why  string `json:"why"`
			}{name, "because"})
		}
		return s
	}
	if err := build("a b", []metricSpec{setup, ok}, []metricSpec{layer}).validate(); err != nil {
		t.Errorf("a good spec: %v", err)
	}
	long := build("a b", []metricSpec{setup}, []metricSpec{layer})
	long.Workloads[0].Why = strings.Repeat("w", 201)
	slow := build("a b", []metricSpec{setup}, []metricSpec{layer})
	slow.RunSeconds = 61
	for name, s := range map[string]*benchSpec{
		"one workload":         build("a", []metricSpec{setup}, []metricSpec{layer}),
		"nine workloads":       build("a b c d e f g h i", []metricSpec{setup}, []metricSpec{layer}),
		"17 end-to-end":        build("a b", append(many(16, ok), setup), []metricSpec{layer}),
		"129 per-layer":        build("a b", []metricSpec{setup}, many(129, layer)),
		"no setup_s":           build("a b", []metricSpec{ok}, []metricSpec{layer}),
		"space in name":        build("a b", with(func(m *metricSpec) { m.Name = "x ms" }), []metricSpec{layer}),
		"name starts with dot": build("a b", with(func(m *metricSpec) { m.Name = ".x" }), []metricSpec{layer}),
		"65-character name":    build("a b", with(func(m *metricSpec) { m.Name = strings.Repeat("x", 65) }), []metricSpec{layer}),
		"name used twice":      build("a b", []metricSpec{setup, ok}, []metricSpec{{Name: "x_ms", Unit: "ms", Better: "lower"}}),
		"bad unit":             build("a b", with(func(m *metricSpec) { m.Unit = "m s" }), []metricSpec{layer}),
		"bad direction":        build("a b", with(func(m *metricSpec) { m.Better = "faster" }), []metricSpec{layer}),
		"bound above 0.25":     build("a b", with(func(m *metricSpec) { m.Bound = 0.3 }), []metricSpec{layer}),
		"bounded layer metric": build("a b", []metricSpec{setup}, []metricSpec{ok}),
		"201-character why":    long,
		"61 s runs":            slow,
	} {
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmoke runs every workload for a second at a tiny scale factor,
// timed phase and traced pass both, and checks what a run must deliver.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range workloads {
		out := t.TempDir()
		cfg := config{spec: spec, workload: w.name, seed: 3, seconds: 1, trace: traceBoth, sf: 0.002, out: out}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, phase := range []string{"warmup", "load", "plain", "traced"} {
			if res.Samples[phase] == 0 {
				t.Errorf("%s: no requests in phase %s", w.name, phase)
			}
		}
		if res.Samples["plain"] != res.Samples["traced"] {
			t.Errorf("%s: %d plain requests but %d traced", w.name, res.Samples["plain"], res.Samples["traced"])
		}
		for _, m := range spec.EndToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.name, m.Name, v, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, m.Name)
			}
		}
		for _, name := range []string{"exec.run_ms", "exec.share", "xmlpub.compile_us", "sql.parse_us", "runtime.rss_peak_mb"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want it measured", w.name, name, res.Metrics[name].Value)
			}
		}
		if rows := res.Metrics["wire.bytes_per_row"].Value; (rows > 0) != (w.name == "wide_docs" || w.open) {
			t.Errorf("%s: wire.bytes_per_row = %v; only rows-mode classes cross the row codec", w.name, rows)
		}
		if w.open && (res.Metrics["lat_p50_ms.high"].Value <= 0 || res.Metrics["loadgen.late_p95_ms.low"].Value < 0) {
			t.Errorf("%s: rate steps not reported", w.name)
		}

		if err := report(cfg, res); err != nil {
			t.Fatalf("%s: report: %v", w.name, err)
		}
		raw, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		names := map[string]int{}
		for _, e := range doc.TraceEvents {
			names[e.Name]++
		}
		for _, name := range []string{spanRemote, spanStaged, spanXMLCompile, spanParse, spanEngineCompile, spanEngineQuery, spanExecRun} {
			if names[name] < res.Samples["traced"] {
				t.Errorf("%s: %d %s spans for %d traced requests", w.name, names[name], name, res.Samples["traced"])
			}
		}
	}
}

func TestDigestMismatchFailsRequests(t *testing.T) {
	w := workloadByName("grouped_analytics")
	h, err := setup(w, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	// The checked-in digests are for another scale factor: with the scale
	// factor claimed to match, every unkeyed class must be reported.
	bad, err := h.checkDigests(w, defaultSF)
	if err != nil || len(bad) != len(w.classes) {
		t.Fatalf("checkDigests = %v, %v; want all %d classes", bad, err, len(w.classes))
	}
	for _, o := range h.closedLoop(w, newSequence(w, 1, h.keys), 0, true) {
		if !o.failed {
			t.Errorf("class %s passed against a reference that disagrees with its digest", w.classes[o.class].name)
		}
	}
}

func TestAgree(t *testing.T) {
	spec := mustSpec(t)
	latBound := specByName(spec.EndToEnd, "publish_p50_ms").Bound
	rateBound := specByName(spec.EndToEnd, "req_per_s").Bound
	write := func(dir string, sf float64, scale map[string]float64) {
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				r := result{Workload: w.name, Seed: seed, Trace: traceOff, SF: sf, Seconds: float64(spec.RunSeconds)}
				r.Correct, r.Attempted = true, 10
				r.Metrics = map[string]metricValue{}
				for _, m := range spec.EndToEnd {
					f := scale[m.Name]
					if f == 0 {
						f = 1
					}
					r.Metrics[m.Name] = metricValue{Value: (100 + float64(seed)) * f, Unit: m.Unit}
				}
				raw, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				name := filepath.Join(dir, w.name+".seed"+string(rune('0'+seed))+".trace0.json")
				if err := os.WriteFile(name, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := loadSet(spec, t.TempDir()); err == nil {
		t.Error("an empty directory loaded as a full set")
	}
	a, same, slower, faster, small := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(a, defaultSF, nil)
	write(same, defaultSF, map[string]float64{"publish_p50_ms": 1 + 0.8*latBound, "req_per_s": 1 - 0.8*rateBound})
	write(slower, defaultSF, map[string]float64{"publish_p50_ms": 1 + 1.2*latBound})
	write(faster, defaultSF, map[string]float64{"publish_p50_ms": 0.5, "req_per_s": 2})
	write(small, 0.002, nil)
	if _, err := agreeSets(io.Discard, spec, a, small); err == nil {
		t.Error("a set measured at another scale factor was compared")
	}
	for _, c := range []struct {
		dir  string
		want bool
	}{{same, true}, {slower, false}, {faster, true}} {
		var out bytes.Buffer
		ok, err := agreeSets(&out, spec, a, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("agreeSets = %v, want %v:\n%s", ok, c.want, out.String())
		}
		if (strings.Contains(out.String(), "BREACH")) == c.want {
			t.Errorf("report and verdict disagree:\n%s", out.String())
		}
	}
}
