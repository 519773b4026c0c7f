package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := NewID()
	if id.IsZero() {
		t.Fatal("NewID returned the zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseID(s)
	if err != nil {
		t.Fatalf("ParseID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip mismatch: %s != %s", back, id)
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("ParseID accepted junk")
	}
	if _, err := ParseID(s[:30]); err == nil {
		t.Fatal("ParseID accepted short input")
	}
}

func TestIDJSON(t *testing.T) {
	id := NewID()
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q", id.String())
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back ID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("unmarshal mismatch: %s != %s", back, id)
	}
}

func TestNilBuilderIsSafe(t *testing.T) {
	var b *Builder
	if !b.ID().IsZero() {
		t.Fatal("nil builder ID not zero")
	}
	if i := b.StartSpan("x", 0); i != -1 {
		t.Fatalf("nil StartSpan = %d, want -1", i)
	}
	b.EndSpan(0)
	b.Span("x", 0)() // must not panic
	b.AddTimed("x", 0, time.Now(), time.Millisecond)
	b.AddSynthetic("x", 0, 0, 0, nil)
	b.Annotate(0, Attr{Key: "k", Value: "v"})
	b.SetPlanHash("h")
	if b.SpanStart(0) != 0 {
		t.Fatal("nil SpanStart non-zero")
	}
	if tr := b.Finish("ok", ""); tr != nil {
		t.Fatal("nil Finish returned a trace")
	}
}

func TestBuilderSpanTree(t *testing.T) {
	id := NewID()
	b := NewBuilder(id, "SELECT 1")
	parse := b.StartSpan("parse", 0)
	time.Sleep(time.Millisecond)
	b.EndSpan(parse)
	exec := b.StartSpan("execute", 0)
	b.AddSynthetic("Scan part", exec, b.SpanStart(exec), 5*time.Millisecond,
		[]Attr{{Key: "rows", Value: "10"}})
	b.EndSpan(exec)
	b.SetPlanHash("deadbeef")
	tr := b.Finish("ok", "")
	if tr == nil {
		t.Fatal("Finish returned nil")
	}
	if tr.ID != id || tr.PlanHash != "deadbeef" || tr.Status != "ok" {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.Spans))
	}
	if tr.Spans[0].Name != "query" || tr.Spans[0].Parent != -1 {
		t.Fatalf("root span wrong: %+v", tr.Spans[0])
	}
	if tr.Spans[parse].Dur < time.Millisecond {
		t.Fatalf("parse span too short: %v", tr.Spans[parse].Dur)
	}
	if tr.Dur < tr.Spans[parse].Dur {
		t.Fatalf("root dur %v < parse dur %v", tr.Dur, tr.Spans[parse].Dur)
	}
	op := tr.Find("Scan part")
	if len(op) != 1 || tr.Spans[op[0]].Parent != exec {
		t.Fatalf("operator span misplaced: %v", op)
	}
	if tr.Spans[op[0]].Start != tr.Spans[exec].Start {
		t.Fatal("synthetic span did not inherit parent start")
	}
	// Finish is idempotent.
	if again := b.Finish("ok", ""); again != nil {
		t.Fatal("second Finish returned a trace")
	}
	// Rendering mentions the pieces a human needs.
	s := tr.String()
	for _, want := range []string{id.String(), "SELECT 1", "deadbeef", "parse", "Scan part", "rows=10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestBuilderConcurrentSpans(t *testing.T) {
	b := NewBuilder(NewID(), "q")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				end := b.Span(fmt.Sprintf("w%d", w), 0)
				b.Annotate(0, Attr{Key: "k", Value: "v"})
				end()
			}
		}(w)
	}
	wg.Wait()
	tr := b.Finish("ok", "")
	if got := len(tr.Spans); got != 1+8*100 {
		t.Fatalf("got %d spans, want %d", got, 1+8*100)
	}
	for i, s := range tr.Spans[1:] {
		if s.Dur < 0 {
			t.Fatalf("span %d negative duration", i+1)
		}
	}
}

func TestChromeJSON(t *testing.T) {
	b := NewBuilder(NewID(), "SELECT 1")
	b.AddSynthetic("execute", 0, 0, 2*time.Millisecond, []Attr{{Key: "rows", Value: "3"}})
	tr := b.Finish("ok", "")
	raw, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("ChromeJSON not parseable: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	if doc.Metadata["trace_id"] != tr.ID.String() {
		t.Fatal("metadata missing trace id")
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		if ev.Name == "execute" {
			found = true
			if ev.Dur < 1999 || ev.Dur > 2001 {
				t.Fatalf("execute dur %v us, want ~2000", ev.Dur)
			}
			if ev.Args["rows"] != "3" {
				t.Fatalf("execute args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("execute event missing")
	}
}

// mkTrace builds a finished trace with a fixed duration for recorder tests.
func mkTrace(dur time.Duration) *Trace {
	return &Trace{ID: NewID(), Query: "q", Dur: dur, Status: "ok",
		Spans: []Span{{Name: "query", Parent: -1, Dur: dur}}}
}

func TestRecorderSlowestRetainedUnderChurn(t *testing.T) {
	r := NewRecorder(4, 3)
	// Three genuinely slow traces early...
	slow := []*Trace{mkTrace(100 * time.Millisecond), mkTrace(300 * time.Millisecond), mkTrace(200 * time.Millisecond)}
	for _, tr := range slow {
		r.Record(tr)
	}
	// ...then heavy churn of fast traces that must evict them from the
	// recent ring but never from the slow set.
	for i := 0; i < 1000; i++ {
		r.Record(mkTrace(time.Duration(i%5+1) * time.Millisecond))
	}
	rec := r.Recent()
	if len(rec) != 4 {
		t.Fatalf("recent len %d, want 4", len(rec))
	}
	for _, s := range rec {
		if s.DurMS > 50 {
			t.Fatalf("slow trace leaked into recent ring after churn: %+v", s)
		}
	}
	sl := r.Slowest()
	if len(sl) != 3 {
		t.Fatalf("slowest len %d, want 3", len(sl))
	}
	wantOrder := []time.Duration{300 * time.Millisecond, 200 * time.Millisecond, 100 * time.Millisecond}
	for i, s := range sl {
		if s.DurMS != float64(wantOrder[i])/float64(time.Millisecond) {
			t.Fatalf("slowest[%d] = %v ms, want %v", i, s.DurMS, wantOrder[i])
		}
	}
	// Every slow trace is still retrievable by ID even though it left
	// the recent ring.
	for _, tr := range slow {
		got := r.Get(tr.ID)
		if got == nil || got.ID != tr.ID {
			t.Fatalf("slow trace %s not retrievable", tr.ID)
		}
	}
	// A new slowest displaces the current minimum.
	champion := mkTrace(time.Second)
	r.Record(champion)
	sl = r.Slowest()
	if sl[0].ID != champion.ID {
		t.Fatalf("new champion not at head: %+v", sl[0])
	}
	if len(sl) != 3 {
		t.Fatalf("slow set grew past cap: %d", len(sl))
	}
	if got := r.Get(slow[0].ID); got != nil {
		t.Fatal("evicted minimum still retrievable")
	}
}

func TestRecorderLastAndGetZero(t *testing.T) {
	r := NewRecorder(2, 2)
	if r.Last() != nil {
		t.Fatal("empty recorder Last != nil")
	}
	if r.Get(ID{}) != nil {
		t.Fatal("Get(zero) != nil")
	}
	a, b := mkTrace(time.Millisecond), mkTrace(2*time.Millisecond)
	r.Record(a)
	r.Record(b)
	if last := r.Last(); last == nil || last.ID != b.ID {
		t.Fatal("Last is not the most recent trace")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(8, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := mkTrace(time.Duration(w*200+i) * time.Microsecond)
				r.Record(tr)
				r.Get(tr.ID)
				r.Recent()
				r.Slowest()
				r.Last()
			}
		}(w)
	}
	wg.Wait()
	if len(r.Recent()) != 8 || len(r.Slowest()) != 8 {
		t.Fatal("recorder sets not at cap after concurrent churn")
	}
}

func TestSamplerDeterministicAndBounded(t *testing.T) {
	a, b := NewSampler(42), NewSampler(42)
	hits := 0
	for i := 0; i < 10000; i++ {
		da, db := a.Sample(0.25), b.Sample(0.25)
		if da != db {
			t.Fatalf("decision %d diverged between identically seeded samplers", i)
		}
		if da {
			hits++
		}
	}
	// 10k Bernoulli(0.25) draws: mean 2500, sd ~43; ±10 sd is safe for a
	// deterministic seed.
	if hits < 2100 || hits > 2900 {
		t.Fatalf("sample rate off: %d/10000 at p=0.25", hits)
	}
	if a.Sample(0) || a.Sample(-1) {
		t.Fatal("p<=0 sampled")
	}
	if !a.Sample(1) || !a.Sample(1.5) {
		t.Fatal("p>=1 did not sample")
	}
	// p>=1 must not consume randomness: both streams still aligned.
	for i := 0; i < 100; i++ {
		b.Sample(1)
	}
	for i := 0; i < 100; i++ {
		if a.Sample(0.5) != b.Sample(0.5) {
			t.Fatal("p>=1 perturbed the decision stream")
		}
	}
	var nilS *Sampler
	if nilS.Sample(1) {
		t.Fatal("nil sampler sampled")
	}
}

func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(7)
	var wg sync.WaitGroup
	var hits int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < 1000; i++ {
				if s.Sample(0.5) {
					local++
				}
			}
			mu.Lock()
			hits += int64(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if hits < 3200 || hits > 4800 {
		t.Fatalf("concurrent sample rate off: %d/8000 at p=0.5", hits)
	}
}

func TestSummarizeTruncatesQuery(t *testing.T) {
	long := strings.Repeat("x", 500)
	tr := &Trace{ID: NewID(), Query: long, Dur: time.Millisecond, Status: "ok"}
	s := tr.Summarize()
	if len(s.Query) != 120 || !strings.HasSuffix(s.Query, "...") {
		t.Fatalf("summary query not truncated: len %d", len(s.Query))
	}
}
