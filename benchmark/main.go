// Command benchmark measures one publishing request end to end and
// layer by layer: FLWR view -> SQL -> parse/bind/optimize -> execute ->
// tag -> wire encode -> client decode -> XML bytes. One process hosts
// the TPC-H database, a server on a loopback TCP listener and the load
// generator. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how often a run sets the system up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

// Trace modes: the driver asks for one metric group per run, a person
// usually wants both.
const (
	traceOff  = 0 // timed phase only: end-to-end metrics
	traceOn   = 1 // half-length load phase, then the traced pass: per-layer metrics
	traceBoth = 2
)

type config struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	// sf is defaultSF, a frozen input and not a flag; only the smoke test
	// sets a smaller one, and such a result is refused by -agree.
	sf float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output, in the driver's shape.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the full record of a run, written beside the trace.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Commit     string  `json:"commit"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SF         float64 `json:"sf"`
	Seconds    float64 `json:"seconds"`

	PhaseSeconds   map[string]float64 `json:"phase_seconds"`
	Samples        map[string]int     `json:"samples"`
	TailPercentile float64            `json:"tail_percentile"`
	DigestMismatch []string           `json:"digest_mismatch,omitempty"`

	summary
	// LayerShares is each layer's part of the traced round trips, per
	// request class and over all of them.
	LayerShares map[string]map[string]float64 `json:"layer_shares,omitempty"`
}

func main() {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the benchmark directory:", err)
		os.Exit(2)
	}
	cfg := config{spec: spec, sf: defaultSF}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for request order, keys and arrival times")
	flag.Float64Var(&cfg.seconds, "seconds", float64(spec.RunSeconds), "length of the measured phase")
	flag.IntVar(&cfg.trace, "trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics from the traced pass, 2: both")
	flag.StringVar(&cfg.out, "out", "out", "directory for result and trace files")
	agree := flag.Bool("agree", false, "compare the two result directories given as arguments and exit 1 on a breached bound")
	update := flag.Bool("update-digests", false, "rewrite "+digestsPath+" from in-process runs")
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-agree takes two result directories")
			break
		}
		var ok bool
		if ok, err = agreeSets(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			os.Exit(1)
		}
	case *update:
		err = updateDigests()
	default:
		var res *result
		if res, err = run(cfg); err == nil {
			err = report(cfg, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// run is one invocation: set-up, warm-up, the load phase, and with
// tracing on the plain and traced passes.
func run(cfg config) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q, want one of %v", cfg.workload, workloadNames())
	}
	if cfg.trace < traceOff || cfg.trace > traceBoth || cfg.seconds <= 0 {
		return nil, fmt.Errorf("bad -trace %d or -seconds %g", cfg.trace, cfg.seconds)
	}
	seconds := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	res := &result{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Commit: commit(),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SF: cfg.sf, Seconds: cfg.seconds,
		PhaseSeconds: map[string]float64{}, Samples: map[string]int{},
	}

	var h *host
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			h = nil // or the old database stays reachable while the next one loads
		}
		runtime.GC()
		start := time.Now()
		var err error
		if h, err = setup(w, cfg.sf); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.close()
	res.PhaseSeconds["setup"] = median(setups)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var err error
	if res.DigestMismatch, err = h.checkDigests(w, cfg.sf); err != nil {
		return nil, err
	}
	d := &runData{w: w}
	count := func(phase string, start time.Time, out []outcome) {
		res.PhaseSeconds[phase] = time.Since(start).Seconds()
		res.Samples[phase] = len(out)
		d.attempted += len(out)
		for i := range out {
			if out[i].failed {
				d.failed++
			}
		}
	}

	// Warm-up fills the plan cache and the runtime's heap; every
	// response is hashed in full.
	start := time.Now()
	count("warmup", start, h.closedLoop(w, newSequence(w, cfg.seed, h.keys), seconds(0.1), true))

	loadShare := 1.0
	if cfg.trace == traceOn {
		loadShare = 0.5
	}
	start = time.Now()
	d.load = h.measure(func() []outcome {
		seq := newSequence(w, cfg.seed, h.keys)
		// The open-loop workload runs back to back first, for the gated
		// times and rates, then its rate steps.
		share := loadShare
		if w.open {
			share *= backToBackShare
		}
		begin := time.Now()
		d.timed = h.closedLoop(w, seq, seconds(share), false)
		d.timedWall = time.Since(begin)
		if !w.open {
			return d.timed
		}
		d.steps = h.openLoop(w, seq, cfg.seed, seconds(loadShare-share))
		all := d.timed
		for _, s := range d.steps {
			all = append(all, s.outcomes...)
		}
		return all
	})
	count("load", start, d.load.outcomes)
	res.Samples["timed"] = len(d.timed)
	d.admission = h.srv.Metrics().Histograms["server_admission_wait"].Quantile(0.95)

	var tracedStart time.Time
	if cfg.trace != traceOff {
		// The plain pass and the traced pass issue the same requests one
		// after another; their difference is what tracing costs.
		start = time.Now()
		d.plain = h.closedLoop(w, newSequence(w, cfg.seed, h.keys), seconds(0.125), false)
		count("plain", start, d.plain)

		tracedStart = time.Now()
		seq := newSequence(w, cfg.seed, h.keys)
		var snk sink
		for i := range d.plain {
			t, err := h.traceRequest(w, i, seq.next(), &snk)
			if err != nil {
				return nil, fmt.Errorf("traced request %d: %w", i, err)
			}
			d.traced = append(d.traced, t)
			d.attempted++
			if t.failed {
				d.failed++
			}
		}
		res.PhaseSeconds["traced"] = time.Since(tracedStart).Seconds()
		res.Samples["traced"] = len(d.traced)
	}

	res.Attempted, res.Failed = d.attempted, d.failed
	res.Correct = d.failed == 0 && len(res.DigestMismatch) == 0
	res.Metrics = map[string]metricValue{}
	res.TailPercentile, d.tail = loadTail(d)
	if cfg.trace != traceOn {
		addMetrics(res.Metrics, cfg.spec.EndToEnd, endToEndMetrics(d, res.PhaseSeconds["setup"]))
	}
	if cfg.trace != traceOff {
		values, shares, err := perLayerMetrics(d, cfg.spec.PerLayer)
		if err != nil {
			return nil, err
		}
		addMetrics(res.Metrics, cfg.spec.PerLayer, values)
		res.LayerShares = shares
		if err := writeChromeTrace(filepath.Join(cfg.out, w.name+".trace.json"), tracedStart, d.traced); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, h.close()
}

// addMetrics reports every metric of the group; one the workload does
// not exercise reads 0.
func addMetrics(out map[string]metricValue, specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
}

// report writes the result file, prints every metric by name with its
// unit, and ends standard output with the driver's summary line.
func report(cfg config, res *result) error {
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", res.Workload, res.Seed, res.Trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(full, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("%s seed %d: %d attempted, %d failed, correct %v\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// commit is the revision the binary was built from, when the build saw
// a repository; the driver's checkout is not one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
