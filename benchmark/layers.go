package main

import (
	"fmt"
	"math"
	"time"
)

// endToEndMetrics reads the user-visible numbers off the load phase:
// times and rates from its closed loop, which on the open-loop workload
// is the back-to-back part, and the cost per request from all of it.
func endToEndMetrics(d *runData, setupS float64) map[string]float64 {
	lat, ttfb := classTimes(d.w, d.timed)
	completed, xmlBytes := 0, 0
	for i := range d.timed {
		if o := &d.timed[i]; !o.failed {
			completed++
			if d.w.classes[o.class].mode != rowsMode {
				xmlBytes += o.bytes
			}
		}
	}
	n := 0.0
	for i := range d.load.outcomes {
		if !d.load.outcomes[i].failed {
			n++
		}
	}
	mem0, mem1 := &d.load.before.mem, &d.load.after.mem
	return map[string]float64{
		"setup_s":          setupS,
		"publish_p50_ms":   classMedian(lat),
		"ttfb_p50_ms":      classMedian(ttfb),
		"req_per_s":        ratio(float64(completed), d.timedWall.Seconds()),
		"xml_mb_per_s":     ratio(float64(xmlBytes)/1e6, d.timedWall.Seconds()),
		"alloc_mb_per_req": ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6, n),
		"allocs_per_req":   ratio(float64(mem1.Mallocs-mem0.Mallocs), n),
	}
}

// classTimes sorts the correct responses' latency and time to first
// byte, in ms, by request class.
func classTimes(w *workload, outcomes []outcome) (lat, ttfb [][]float64) {
	lat, ttfb = make([][]float64, len(w.classes)), make([][]float64, len(w.classes))
	for i := range outcomes {
		if o := &outcomes[i]; !o.failed {
			lat[o.class] = append(lat[o.class], ms(o.latency()))
			ttfb[o.class] = append(ttfb[o.class], ms(o.ttfb()))
		}
	}
	return lat, ttfb
}

// classMedian is the geometric mean of the request classes' medians,
// each weighted with the class's share of the requests. A class that
// slows by a tenth moves it by a tenth of that share, whether the class
// takes 0.1 ms or 100: a point lookup, 60% of entity_serving's requests
// and a twentieth of their time, counts for 60%. Classes differ by
// one to three orders of magnitude, so the median of the pooled sample
// would fall in a gap between two classes and jump with the few
// requests that a GC cycle pushes across it.
func classMedian(byClass [][]float64) float64 {
	total, sum := 0, 0.0
	for _, xs := range byClass {
		if len(xs) > 0 {
			total += len(xs)
			sum += float64(len(xs)) * math.Log(median(xs))
		}
	}
	if total == 0 {
		return 0
	}
	return math.Exp(sum / float64(total))
}

// layerSums adds up the traced requests of one class, or of all.
type layerSums struct {
	n int

	remote, xmlCompile, parse, engineCompile, paidCompile time.Duration
	box, exec, tag, encode, decode, twinExec, grouped     time.Duration

	rows, taggedRows, xmlBytes, wireRows, wireBytes int
	rowsScanned, groups                             int64
	execAllocs, execAllocBytes, tagAllocs           uint64
	decodeAllocs                                    uint64
}

func (s *layerSums) add(t *traced, self map[string]time.Duration) {
	s.n++
	s.remote += self[spanRemote]
	s.xmlCompile += self[spanXMLCompile]
	s.parse += self[spanParse]
	s.engineCompile += self[spanEngineCompile]
	if !t.hit {
		// The remote request compiled its statement; the staged
		// engine.query that followed found it cached.
		s.paidCompile += self[spanEngineCompile]
	}
	s.box += self[spanEngineQuery]
	s.exec += self[spanExecRun]
	s.tag += self[spanTag]
	s.encode += self[spanWireEncode]
	s.decode += self[spanWireDecode]
	s.twinExec += t.twinExec
	if t.stats.Groups > 0 {
		s.grouped += self[spanExecRun]
	}
	s.rows += t.rows
	if t.xmlSize > 0 {
		s.taggedRows += t.rows
	}
	s.xmlBytes += t.xmlSize
	s.wireRows += t.wireRows
	s.wireBytes += t.wireBytes
	s.rowsScanned += t.stats.RowsScanned
	s.groups += t.stats.Groups
	s.execAllocs += t.execAllocs
	s.execAllocBytes += t.execAllocBytes
	s.tagAllocs += t.tagAllocs
	s.decodeAllocs += t.decodeAllocs
}

// compile is what a request pays before execution: FLWR to SQL always,
// parse/bind/optimize when the plan cache missed.
func (s *layerSums) compile() time.Duration { return s.xmlCompile + s.paidCompile }

// residual is the round trip minus every staged layer: sessions,
// admission, framing, sockets, scheduling. It is negative when the
// server and the client overlap work the staged pass does in sequence.
func (s *layerSums) residual() time.Duration {
	return s.remote - (s.compile() + s.box + s.exec + s.tag + s.encode + s.decode)
}

// shares is each layer's part of the round trip, for the README table.
func (s *layerSums) shares() map[string]float64 {
	of := func(d time.Duration) float64 { return ratio(float64(d), float64(s.remote)) }
	return map[string]float64{
		"compile":      of(s.compile()),
		"exec":         of(s.exec),
		"engine.box":   of(s.box),
		"xmlpub.tag":   of(s.tag),
		"wire":         of(s.encode + s.decode),
		"srv_residual": of(s.residual()),
	}
}

// metricSet collects per-layer values and refuses names BENCHMARK.json
// does not list, so the file and the code cannot drift apart.
type metricSet struct {
	specs  []metricSpec
	values map[string]float64
	err    error
}

func (m *metricSet) set(name string, v float64) {
	if specByName(m.specs, name) == nil && m.err == nil {
		m.err = fmt.Errorf("per-layer metric %q is not in the spec", name)
	}
	m.values[name] = v
}

// runData is everything one invocation measured, as the metric code
// reads it.
type runData struct {
	w         *workload
	load      *phase
	timed     []outcome     // the load phase's closed loop
	timedWall time.Duration // and how long it ran
	steps     []step        // open loop only
	plain     []outcome
	traced    []*traced
	attempted int
	failed    int
	admission time.Duration // p95 of the server's admission-wait histogram
	tail      float64       // the load phase's latency tail, ms
}

// loadTail is the load phase's latency tail — under arrivals where the
// workload has rate steps, else of its closed loop: the percentile it
// was read at (95 when the sample supports it) and its value.
func loadTail(d *runData) (float64, float64) {
	outcomes := d.timed
	if d.w.open {
		outcomes = d.load.outcomes[len(d.timed):]
	}
	var lat []float64
	for i := range outcomes {
		if !outcomes[i].failed {
			lat = append(lat, ms(outcomes[i].latency()))
		}
	}
	p := tailPercentile(len(lat), 95)
	return p, percentile(sortedCopy(lat), p)
}

func perLayerMetrics(d *runData, specs []metricSpec) (map[string]float64, map[string]map[string]float64, error) {
	m := &metricSet{specs: specs, values: map[string]float64{}}
	all := &layerSums{}
	byClass := make([]layerSums, len(d.w.classes))
	for _, t := range d.traced {
		self := selfByName(t.trace)
		byClass[t.class].add(t, self)
		all.add(t, self)
	}
	ns := func(d time.Duration) float64 { return float64(d) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	n := float64(all.n)

	m.set("xmlpub.compile_us", ratio(us(all.xmlCompile), n))
	m.set("xmlpub.tag_ns_per_row", ratio(ns(all.tag), float64(all.taggedRows)))
	m.set("xmlpub.tag_mb_per_s", ratio(float64(all.xmlBytes)/1e6, all.tag.Seconds()))
	m.set("xmlpub.tag_allocs_per_row", ratio(float64(all.tagAllocs), float64(all.taggedRows)))
	m.set("xmlpub.tag_share", ratio(ns(all.tag), ns(all.remote)))

	m.set("sql.parse_us", ratio(us(all.parse), n))
	m.set("bind_opt.us", ratio(us(all.engineCompile-all.parse), n))
	m.set("compile.share", ratio(ns(all.compile()), ns(all.remote)))

	m.set("exec.run_ms", ratio(ms(all.exec), n))
	m.set("exec.share", ratio(ns(all.exec), ns(all.remote)))
	m.set("exec.rows_scanned_per_out_row", ratio(float64(all.rowsScanned), float64(all.rows)))
	m.set("exec.groups_per_req", ratio(float64(all.groups), n))
	m.set("exec.ns_per_group", ratio(ns(all.grouped), float64(all.groups)))
	m.set("exec.alloc_kb_per_req", ratio(float64(all.execAllocBytes)/1024, n))
	m.set("exec.allocs_per_out_row", ratio(float64(all.execAllocs), float64(all.rows)))

	m.set("engine.box_ns_per_row", ratio(ns(all.box), float64(all.rows)))
	m.set("engine.box_share", ratio(ns(all.box), ns(all.remote)))

	m.set("wire.encode_ns_per_row", ratio(ns(all.encode), float64(all.wireRows)))
	m.set("wire.decode_ns_per_row", ratio(ns(all.decode), float64(all.wireRows)))
	m.set("wire.bytes_per_row", ratio(float64(all.wireBytes), float64(all.wireRows)))
	m.set("wire.decode_allocs_per_row", ratio(float64(all.decodeAllocs), float64(all.wireRows)))
	m.set("wire.share", ratio(ns(all.encode+all.decode), ns(all.remote)))

	m.set("server.residual_ms", ratio(ms(all.residual()), n))
	m.set("server.residual_share", ratio(ns(all.residual()), ns(all.remote)))

	// Twin statements: the dop-1 run of a GApply request, or the GApply
	// translation of a sorted-outer-union request.
	var dop1Own, dop1Twin time.Duration
	shares := map[string]map[string]float64{"all": all.shares()}
	for i := range byClass {
		s, name := &byClass[i], d.w.classes[i].name
		shares[name] = s.shares()
		cn := float64(s.n)
		m.set("exec.run_ms."+name, ratio(ms(s.exec), cn))
		m.set("exec.share."+name, ratio(ns(s.exec), ns(s.remote)))
		m.set("compile.share."+name, ratio(ns(s.compile()), ns(s.remote)))
		m.set("server.residual_share."+name, ratio(ns(s.residual()), ns(s.remote)))
		switch d.w.classes[i].twin {
		case "dop1":
			m.set("exec.dop1_over_default."+name, ratio(ns(s.twinExec), ns(s.exec)))
			dop1Own += s.exec
			dop1Twin += s.twinExec
		case "gapply":
			m.set("paper.fig8_ratio."+name, ratio(ns(s.exec), ns(s.twinExec)))
		}
	}
	m.set("exec.dop1_over_default", ratio(ns(dop1Twin), ns(dop1Own)))

	// The gated latency's parts, and the tail beside it.
	lat, _ := classTimes(d.w, d.timed)
	for i, c := range d.w.classes {
		m.set("publish_p50_ms."+c.name, median(lat[i]))
	}
	m.set("publish_p95_ms", d.tail)

	// Whole-process counters across the load phase.
	load := d.load
	reqs := float64(len(load.outcomes))
	db0, db1 := load.before.db, load.after.db
	hits := counterDelta(db0, db1, "plan_cache_hits")
	m.set("plancache.hit_ratio", ratio(hits, hits+counterDelta(db0, db1, "plan_cache_misses")))
	srv0, srv1 := load.before.srv, load.after.srv
	m.set("server.admission_wait_p95_ms", ms(d.admission))
	m.set("server.busy_rejects", counterDelta(srv0, srv1, "server_errors_busy"))
	m.set("server.bytes_streamed_per_req", ratio(counterDelta(srv0, srv1, "server_bytes_streamed"), reqs))
	rt0, rt1 := load.before.runtime, load.after.runtime
	m.set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	m.set("runtime.gc_cycles_per_req", ratio(float64(rt1.gcCycles-rt0.gcCycles), reqs))
	m.set("runtime.heap_peak_mb", float64(load.heapPeak)/1e6)
	m.set("runtime.rss_peak_mb", rssPeakMB())
	m.set("failed_share", ratio(float64(d.failed), float64(d.attempted)))

	// The open loop's rate steps.
	maxOK := 0.0
	for i := range d.steps {
		s := &d.steps[i]
		var lat, late []float64
		for j := range s.outcomes {
			lat = append(lat, ms(s.outcomes[j].latency()))
			late = append(late, ms(s.outcomes[j].late()))
		}
		lat, late = sortedCopy(lat), sortedCopy(late)
		tail := tailPercentile(len(lat), 95)
		m.set("lat_p50_ms."+s.name, percentile(lat, 50))
		if s.name == "high" {
			m.set("server.lat_p95_ms.high", percentile(lat, tail))
		} else {
			m.set("lat_p95_ms."+s.name, percentile(lat, tail))
		}
		m.set("loadgen.late_p95_ms."+s.name, percentile(late, tail))
		if s.ok() && s.rps > maxOK {
			maxOK = s.rps
		}
	}
	m.set("max_rate_ok_rps", maxOK)

	// Tracing overhead: the traced pass repeats the plain pass's requests.
	var plain time.Duration
	for i := range d.plain {
		plain += d.plain[i].latency()
	}
	if plain > 0 {
		m.set("trace.overhead_share", ratio(ns(all.remote), ns(plain))-1)
	}
	return m.values, shares, m.err
}
