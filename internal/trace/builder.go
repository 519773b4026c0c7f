package trace

import (
	"sync"
	"time"
)

// Builder accumulates spans for one in-flight traced query. All methods
// are safe on a nil *Builder — the untraced path passes nil around and
// pays only the receiver check — and safe for concurrent use, since
// spans may be added from the session goroutine and the engine.
//
// Span indexes returned by StartSpan are stable handles; EndSpan may be
// called at most once per handle. Finish seals the builder and returns
// the completed Trace; later calls are no-ops returning nil.
type Builder struct {
	mu       sync.Mutex
	id       ID
	query    string
	planHash string
	start    time.Time
	spans    []Span
	open     []time.Time // per-span start wall time; zero once ended
	done     bool
}

// NewBuilder opens a trace: it records the begin time and creates the
// root span (index 0) named "query".
func NewBuilder(id ID, query string) *Builder {
	b := &Builder{id: id, query: query, start: time.Now()}
	b.spans = append(b.spans, Span{Name: "query", Parent: -1})
	b.open = append(b.open, b.start)
	return b
}

// ID returns the trace ID (zero for a nil builder).
func (b *Builder) ID() ID {
	if b == nil {
		return ID{}
	}
	return b.id
}

// SetPlanHash records the compiled plan's hash on the trace.
func (b *Builder) SetPlanHash(h string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.planHash = h
	b.mu.Unlock()
}

// StartSpan opens a child span under parent (0 = root) and returns its
// handle. On a nil builder it returns -1, which every other method
// accepts and ignores.
func (b *Builder) StartSpan(name string, parent int) int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return -1
	}
	now := time.Now()
	b.spans = append(b.spans, Span{Name: name, Parent: parent, Start: now.Sub(b.start)})
	b.open = append(b.open, now)
	return len(b.spans) - 1
}

// EndSpan closes the span with the given handle, fixing its duration.
func (b *Builder) EndSpan(i int) {
	if b == nil || i < 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done || i >= len(b.spans) || b.open[i].IsZero() {
		return
	}
	b.spans[i].Dur = now.Sub(b.open[i])
	b.open[i] = time.Time{}
}

// Span opens a child span and returns the closure that ends it — the
// idiomatic `defer tb.Span("parse", 0)()` form. On a nil builder the
// returned closure is a no-op.
func (b *Builder) Span(name string, parent int) func() {
	i := b.StartSpan(name, parent)
	return func() { b.EndSpan(i) }
}

// AddTimed records an already-measured region (e.g. admission wait
// timed around a blocking acquire) as a completed span.
func (b *Builder) AddTimed(name string, parent int, start time.Time, dur time.Duration) int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return -1
	}
	b.spans = append(b.spans, Span{Name: name, Parent: parent, Start: start.Sub(b.start), Dur: dur})
	b.open = append(b.open, time.Time{})
	return len(b.spans) - 1
}

// AddSynthetic records a span whose start is an explicit offset from
// the trace begin — used for operator spans reconstructed from the
// executor profile after the run, which have inclusive durations but no
// wall-clock start of their own.
func (b *Builder) AddSynthetic(name string, parent int, startOff, dur time.Duration, attrs []Attr) int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return -1
	}
	b.spans = append(b.spans, Span{Name: name, Parent: parent, Start: startOff, Dur: dur, Attrs: attrs})
	b.open = append(b.open, time.Time{})
	return len(b.spans) - 1
}

// Annotate appends attributes to an open or closed span.
func (b *Builder) Annotate(i int, attrs ...Attr) {
	if b == nil || i < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done || i >= len(b.spans) {
		return
	}
	b.spans[i].Attrs = append(b.spans[i].Attrs, attrs...)
}

// SpanStart returns the recorded start offset of span i (0 if unknown),
// so post-run synthetic children can inherit their parent's start.
func (b *Builder) SpanStart(i int) time.Duration {
	if b == nil || i < 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i >= len(b.spans) {
		return 0
	}
	return b.spans[i].Start
}

// Finish seals the builder: any still-open spans (the root included)
// are closed at now, and the completed Trace is returned. Subsequent
// calls return nil.
func (b *Builder) Finish(status, errMsg string) *Trace {
	if b == nil {
		return nil
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return nil
	}
	b.done = true
	for i := range b.spans {
		if !b.open[i].IsZero() {
			b.spans[i].Dur = now.Sub(b.open[i])
			b.open[i] = time.Time{}
		}
	}
	t := &Trace{
		ID: b.id, Query: b.query, PlanHash: b.planHash,
		Started: b.start, Dur: b.spans[0].Dur,
		Status: status, Error: errMsg,
		Spans: append([]Span(nil), b.spans...),
	}
	return t
}
