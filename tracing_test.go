package gapplydb_test

import (
	"strings"
	"sync"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
)

// traceQuery is a groupwise statement that exercises parse, bind,
// optimize, spooling-eligible joins and GApply execution — every span
// the tracer should emit.
const traceQuery = `select gapply(select count(*) from g) as (cnt)
from partsupp group by ps_suppkey : g`

func TestQueryTraceSpans(t *testing.T) {
	db := integDatabase(t)
	id := gapplydb.NewTraceID()
	// Keep the GApply operator in the plan (the gapply→groupby rule
	// would rewrite this aggregate-only group query) so the span tree
	// exercises the groupwise operator path.
	res, err := db.Query(traceQuery, gapplydb.WithTraceID(id), gapplydb.WithDOP(8),
		gapplydb.WithoutPlanCache(), gapplydb.WithoutRule("gapply-to-groupby"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != id {
		t.Fatalf("Result.TraceID = %s, want %s", res.TraceID, id)
	}
	tr := db.Traces().Get(id)
	if tr == nil {
		t.Fatal("trace not in flight recorder")
	}
	if tr.Status != "ok" {
		t.Fatalf("status %q, want ok", tr.Status)
	}
	if tr.PlanHash == "" {
		t.Fatal("trace has no plan hash")
	}
	// Phase spans, all children of the root.
	for _, phase := range []string{"parse", "bind", "optimize", "execute"} {
		idx := tr.Find(phase)
		if len(idx) != 1 {
			t.Fatalf("phase %q: %d spans, want 1\n%s", phase, len(idx), tr)
		}
		if s := tr.Spans[idx[0]]; s.Parent != 0 {
			t.Fatalf("phase %q parented to %d, want root\n%s", phase, s.Parent, tr)
		}
	}
	// Operator spans nest under execute and mirror the plan: GApply with
	// a partsupp scan below it somewhere.
	execIdx := tr.Find("execute")[0]
	gapply := tr.Find("GApply")
	if len(gapply) != 1 || tr.Spans[gapply[0]].Parent != execIdx {
		t.Fatalf("GApply span missing or misparented\n%s", tr)
	}
	scans := tr.Find("Scan partsupp")
	if len(scans) == 0 {
		t.Fatalf("no partsupp scan span\n%s", tr)
	}
	// Operator spans carry the profile actuals.
	var rows string
	for _, a := range tr.Spans[gapply[0]].Attrs {
		if a.Key == "rows" {
			rows = a.Value
		}
	}
	if rows == "" || rows == "0" {
		t.Fatalf("GApply span rows attr = %q, want > 0\n%s", rows, tr)
	}
	// The phase spans partition the root consistently: each child ends
	// no later than the root span does.
	for _, s := range tr.Spans[1:] {
		if s.Parent == 0 && s.Start+s.Dur > tr.Dur+tr.Dur/10 {
			t.Fatalf("phase span %q overruns root: %v+%v > %v", s.Name, s.Start, s.Dur, tr.Dur)
		}
	}
}

// TestTraceDurationsConsistentWithAnalyze pins the acceptance criterion
// that trace spans agree with EXPLAIN ANALYZE actuals: the same
// execution produces both, so the root operator span's duration must
// equal the profile's inclusive root time rendered by ANALYZE.
func TestTraceDurationsConsistentWithAnalyze(t *testing.T) {
	db := integDatabase(t)
	id := gapplydb.NewTraceID()
	e, err := db.ExplainAnalyze(traceQuery, gapplydb.WithTraceID(id), gapplydb.WithoutPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	tr := db.Traces().Get(id)
	if tr == nil {
		t.Fatal("analyzed query not in flight recorder")
	}
	execIdx := tr.Find("execute")
	if len(execIdx) != 1 {
		t.Fatalf("execute spans = %d, want 1", len(execIdx))
	}
	// The execute span wraps exec.Run; the analyzed Result's Elapsed is
	// the same region. They are separate clock reads, so allow slack,
	// but they must be the same order of magnitude region.
	execDur := tr.Spans[execIdx[0]].Dur
	if execDur < e.Result.Elapsed {
		t.Fatalf("execute span %v shorter than analyzed elapsed %v", execDur, e.Result.Elapsed)
	}
	if e.Result.TraceID != id {
		t.Fatalf("analyzed Result.TraceID = %s, want %s", e.Result.TraceID, id)
	}
	if !strings.Contains(e.Plan, "actual rows=") {
		t.Fatal("analyzed plan lost its actuals")
	}
}

func TestTracePlanCacheHitSpan(t *testing.T) {
	db := integDatabase(t)
	// Prime the cache, then trace a repeat of the same statement.
	if _, err := db.Query(traceQuery); err != nil {
		t.Fatal(err)
	}
	id := gapplydb.NewTraceID()
	res, err := db.Query(traceQuery, gapplydb.WithTraceID(id))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHits != 1 {
		t.Fatalf("expected a plan-cache hit, stats: %+v", res.Stats)
	}
	tr := db.Traces().Get(id)
	if tr == nil {
		t.Fatal("trace not recorded")
	}
	lookup := tr.Find("plan-cache")
	if len(lookup) != 1 {
		t.Fatalf("plan-cache spans = %d, want 1\n%s", len(lookup), tr)
	}
	verdict := ""
	for _, a := range tr.Spans[lookup[0]].Attrs {
		if a.Key == "verdict" {
			verdict = a.Value
		}
	}
	if verdict != "hit" {
		t.Fatalf("plan-cache verdict = %q, want hit\n%s", verdict, tr)
	}
	// A cache hit skips parse/bind/optimize — no such spans.
	if n := len(tr.Find("parse")) + len(tr.Find("bind")) + len(tr.Find("optimize")); n != 0 {
		t.Fatalf("cache-hit trace has %d compile spans\n%s", n, tr)
	}
	if tr.PlanHash == "" {
		t.Fatal("cache-hit trace lost the plan hash")
	}
}

func TestTraceErrorRecorded(t *testing.T) {
	db := integDatabase(t)
	id := gapplydb.NewTraceID()
	_, err := db.Query("select bogus syntax here", gapplydb.WithTraceID(id))
	if err == nil {
		t.Fatal("bad statement succeeded")
	}
	tr := db.Traces().Get(id)
	if tr == nil {
		t.Fatal("failed query's trace not recorded")
	}
	if tr.Status != "error" || tr.Error == "" {
		t.Fatalf("error trace status=%q error=%q", tr.Status, tr.Error)
	}
}

func TestStreamTraceRecorded(t *testing.T) {
	db := integDatabase(t)
	id := gapplydb.NewTraceID()
	s, err := db.Stream(traceQuery, gapplydb.WithTraceID(id), gapplydb.WithDOP(8),
		gapplydb.WithoutRule("gapply-to-groupby"))
	if err != nil {
		t.Fatal(err)
	}
	if s.TraceID() != id {
		t.Fatalf("Stream.TraceID = %s, want %s", s.TraceID(), id)
	}
	// The trace is recorded at finish, not at start.
	for {
		_, ok, err := s.NextRows()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tr := db.Traces().Get(id)
	if tr == nil {
		t.Fatal("stream trace not in flight recorder")
	}
	if len(tr.Find("execute")) != 1 || len(tr.Find("GApply")) != 1 {
		t.Fatalf("stream trace missing execution spans\n%s", tr)
	}
}

// TestTraceNeutrality is the tracing analogue of the instrumentation
// no-Heisenberg guarantee: tracing a query must not change its rows at
// any degree of parallelism.
func TestTraceNeutrality(t *testing.T) {
	db := integDatabase(t)
	for _, sq := range experiments.SuiteQueries()[:4] {
		for _, dop := range []int{1, 8} {
			plain, err := db.Query(sq.SQL, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatalf("%s dop %d: %v", sq.Name, dop, err)
			}
			traced, err := db.Query(sq.SQL, gapplydb.WithDOP(dop), gapplydb.WithTracing())
			if err != nil {
				t.Fatalf("%s dop %d traced: %v", sq.Name, dop, err)
			}
			if traced.TraceID.IsZero() {
				t.Fatalf("%s: WithTracing produced no trace ID", sq.Name)
			}
			if d := firstDiff(ordered(plain), ordered(traced)); d != "" {
				t.Fatalf("%s dop %d: tracing changed the rows: %s", sq.Name, dop, d)
			}
		}
	}
	if plain, err := db.Query(traceQuery); err != nil {
		t.Fatal(err)
	} else if !plain.TraceID.IsZero() {
		t.Fatal("untraced query carries a trace ID")
	}
}

// TestTraceSamplingDeterministic pins head sampling to the seeded
// decision stream: identical seeds make identical decisions, and the
// sampled fraction tracks p.
func TestTraceSamplingDeterministic(t *testing.T) {
	db := integDatabase(t)
	run := func(seed int64, n int, p float64) []bool {
		db.SeedTraceSampler(seed)
		out := make([]bool, n)
		for i := range out {
			res, err := db.Query("select count(*) from part", gapplydb.WithTraceSampling(p))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = !res.TraceID.IsZero()
		}
		return out
	}
	a := run(42, 64, 0.5)
	b := run(42, 64, 0.5)
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical seeds", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(a) {
		t.Fatalf("sampling at p=0.5 hit %d/%d — not sampling", sampled, len(a))
	}
	// p=0 never traces; p=1 always does.
	for _, r := range run(1, 8, 0) {
		if r {
			t.Fatal("p=0 traced a query")
		}
	}
	for _, r := range run(1, 8, 1) {
		if !r {
			t.Fatal("p=1 skipped a query")
		}
	}
}

// TestTraceConcurrentSampledQueries churns sampled, traced queries at
// dop 8 from many goroutines — the race detector's view of the sampler,
// builder, and flight recorder under real load.
func TestTraceConcurrentSampledQueries(t *testing.T) {
	db := integDatabase(t)
	db.SeedTraceSampler(7)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := db.Query(traceQuery, gapplydb.WithDOP(8), gapplydb.WithTraceSampling(0.5))
				if err != nil {
					errs <- err
					return
				}
				if !res.TraceID.IsZero() {
					if tr := db.Traces().Get(res.TraceID); tr == nil {
						// The recent ring may have churned past it, but the
						// recorder must never corrupt: a miss is acceptable,
						// a wrong trace is not (Get checked ID equality).
						continue
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(db.Traces().Recent()) == 0 {
		t.Fatal("no traces recorded by concurrent sampled queries")
	}
}
