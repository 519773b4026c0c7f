package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"gapplydb"
	"gapplydb/internal/sql"
	"gapplydb/internal/trace"
	"gapplydb/internal/wire"
	"gapplydb/xmlpub"
)

// Span names. The staged names are the ones in-program spans will take
// over under a later change, so the metric definitions survive it.
const (
	spanRemote        = "remote.request"
	spanStaged        = "staged"
	spanXMLCompile    = "xmlpub.compile"
	spanParse         = "sql.parse"
	spanEngineCompile = "engine.compile"
	spanEngineQuery   = "engine.query"
	spanExecRun       = "exec.run"
	spanTag           = "xmlpub.tag"
	spanWireEncode    = "wire.encode"
	spanWireDecode    = "wire.decode"
	spanTwin          = "twin"
)

// The server's streaming shape (internal/server/session.go), repeated
// so the staged codec pass frames the rows the way the server does.
const (
	batchMaxRows  = 256
	batchMaxBytes = 128 << 10
)

// traced is one request of the traced pass: its span tree and the
// counts taken at the same boundaries.
type traced struct {
	class   int
	trace   *trace.Trace
	failed  bool
	rows    int // result rows
	xmlSize int // document bytes the tagger produced
	hit     bool
	stats   gapplydb.ExecStats

	execAllocs, execAllocBytes uint64
	tagAllocs                  uint64
	decodeAllocs               uint64
	wireRows, wireBytes        int
	twinExec                   time.Duration // the twin statement's Result.Elapsed
}

func mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func attr(key string, v int64) trace.Attr {
	return trace.Attr{Key: key, Value: strconv.FormatInt(v, 10)}
}

// traceRequest runs request i for real (remote.request), then walks the
// same request through each layer's public entry point in process
// (staged), one span per call. The root span is the request.
func (h *host) traceRequest(w *workload, i int, r request, snk *sink) (*traced, error) {
	c := w.classes[r.class]
	var id trace.ID
	binary.BigEndian.PutUint64(id[8:], uint64(i)+1)
	tb := trace.NewBuilder(id, c.name)
	tr := &traced{class: r.class}

	// The span is the interval the plain pass times, request issued to
	// last byte; hashing the whole response, which h.do does after it,
	// stays outside.
	o := h.do(h.conns[i%len(h.conns)], w, r, snk, true)
	remote := tb.AddTimed(spanRemote, 0, o.sent, o.latency())
	tr.failed, tr.hit = o.failed, o.stats.Exec.PlanCacheHits > 0
	tb.Annotate(remote,
		attr("request", int64(i)),
		attr("first_byte_ns", int64(o.ttfb())),
		attr("bytes", int64(o.bytes)),
		attr("plan_cache_hit", o.stats.Exec.PlanCacheHits))

	staged := tb.StartSpan(spanStaged, 0)
	s := tb.StartSpan(spanXMLCompile, staged)
	sqlText, plan := c.compile(r.key)
	tb.EndSpan(s)

	s = tb.StartSpan(spanParse, staged)
	_, _, err := sql.Parse(sqlText)
	tb.EndSpan(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spanParse, err)
	}

	s = tb.StartSpan(spanEngineCompile, staged)
	_, err = h.db.Plan(sqlText, gapplydb.WithoutPlanCache())
	tb.EndSpan(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spanEngineCompile, err)
	}

	res, err := h.stagedQuery(tb, spanEngineQuery, staged, sqlText, &tr.execAllocs, &tr.execAllocBytes)
	if err != nil {
		return nil, err
	}
	tr.rows, tr.stats = len(res.Rows), res.Stats

	if plan != nil {
		var doc countingWriter
		a0, _ := mallocs()
		s = tb.StartSpan(spanTag, staged)
		err = xmlpub.TagAll(plan, res.Rows, &doc)
		tb.EndSpan(s)
		a1, _ := mallocs()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spanTag, err)
		}
		tr.tagAllocs, tr.xmlSize = a1-a0, doc.n
		tb.Annotate(s, attr("rows", int64(tr.rows)), attr("bytes", int64(doc.n)), attr("allocs", int64(tr.tagAllocs)))
	}

	if c.mode != xmlMode {
		if err := h.stagedCodec(tb, staged, res, tr); err != nil {
			return nil, err
		}
	}
	tb.EndSpan(staged)

	switch c.twin {
	case "dop1":
		res, err = h.stagedQuery(tb, spanTwin, 0, sqlText, nil, nil, gapplydb.WithDOP(1))
	case "gapply":
		res, err = h.stagedQuery(tb, spanTwin, 0, c.flwr(r.key).SQL(xmlpub.GApply), nil, nil)
	}
	if err != nil {
		return nil, err
	}
	if c.twin != "" {
		tr.twinExec = res.Elapsed
	}
	tr.trace = tb.Finish("ok", "")
	return tr, nil
}

// stagedQuery is db.Query under a span, with exec.run synthesised
// beneath it from Result.Elapsed: the span's self time is then what the
// root package adds around the executor (boxing rows into []any, the
// plan-cache lookup).
func (h *host) stagedQuery(tb *trace.Builder, name string, parent int, sqlText string, allocs, allocBytes *uint64, opts ...gapplydb.QueryOption) (*gapplydb.Result, error) {
	var a0, b0 uint64
	if allocs != nil {
		a0, b0 = mallocs()
	}
	s := tb.StartSpan(name, parent)
	res, err := h.db.Query(sqlText, opts...)
	tb.EndSpan(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if allocs != nil {
		a1, b1 := mallocs()
		*allocs, *allocBytes = a1-a0, b1-b0
	}
	tb.AddSynthetic(spanExecRun, s, tb.SpanStart(s), res.Elapsed, []trace.Attr{
		attr("rows", int64(len(res.Rows))),
		attr("rows_scanned", res.Stats.RowsScanned),
		attr("groups", res.Stats.Groups),
	})
	return res, nil
}

// stagedCodec pushes the request's own rows through the row-batch
// codec and framing, batched as the server batches them: encode into a
// buffer under wire.encode, read back under wire.decode.
func (h *host) stagedCodec(tb *trace.Builder, parent int, res *gapplydb.Result, tr *traced) error {
	var pipe bytes.Buffer
	ncols := len(res.Columns)
	s := tb.StartSpan(spanWireEncode, parent)
	for lo := 0; lo < len(res.Rows); {
		hi, size := lo, 0
		for hi < len(res.Rows) && hi-lo < batchMaxRows && size < batchMaxBytes {
			size += rowSize(res.Rows[hi])
			hi++
		}
		payload, err := wire.EncodeRowBatch(1, ncols, res.Rows[lo:hi])
		if err == nil {
			err = wire.WriteFrame(&pipe, wire.TypeRowBatch, payload)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", spanWireEncode, err)
		}
		lo = hi
	}
	tb.EndSpan(s)
	tr.wireRows, tr.wireBytes = len(res.Rows), pipe.Len()
	tb.Annotate(s, attr("rows", int64(tr.wireRows)), attr("bytes", int64(tr.wireBytes)))

	a0, _ := mallocs()
	s = tb.StartSpan(spanWireDecode, parent)
	decoded := 0
	for pipe.Len() > 0 {
		_, payload, err := wire.ReadFrame(&pipe, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", spanWireDecode, err)
		}
		_, rows, err := wire.DecodeRowBatch(payload)
		if err != nil {
			return fmt.Errorf("%s: %w", spanWireDecode, err)
		}
		decoded += len(rows)
	}
	tb.EndSpan(s)
	a1, _ := mallocs()
	if decoded != len(res.Rows) {
		return fmt.Errorf("%s: %d rows back, %d sent", spanWireDecode, decoded, len(res.Rows))
	}
	tr.decodeAllocs = a1 - a0
	tb.Annotate(s, attr("rows", int64(decoded)), attr("allocs", int64(tr.decodeAllocs)))
	return nil
}

// rowSize is the server's estimate of a row's encoded size.
func rowSize(row []any) int {
	n := 0
	for _, v := range row {
		if x, ok := v.(string); ok {
			n += 5 + len(x)
		} else {
			n += 9
		}
	}
	return n
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may nest, overlap each
// other or stick out past the parent (a synthetic exec.run under
// parallel GApply can): covered time is the union of the children's
// intervals clipped to the parent's.
func selfTimes(spans []trace.Span) []time.Duration {
	type interval struct{ lo, hi time.Duration }
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.Start+s.Dur, p.Start+p.Dur)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], interval{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
		var covered, edge time.Duration
		for k, c := range iv {
			if k == 0 || c.lo > edge {
				covered += c.hi - c.lo
				edge = c.hi
			} else if c.hi > edge {
				covered += c.hi - edge
				edge = c.hi
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// selfByName sums a trace's self times by span name. The twin's
// exec.run is kept apart from the request's own.
func selfByName(t *trace.Trace) map[string]time.Duration {
	self := selfTimes(t.Spans)
	out := map[string]time.Duration{}
	for i, s := range t.Spans {
		name := s.Name
		if s.Parent > 0 && t.Spans[s.Parent].Name == spanTwin {
			name = spanTwin + "/" + name
		}
		out[name] += self[i]
	}
	return out
}

// writeChromeTrace writes every traced request as Chrome trace events
// (chrome://tracing, Perfetto): one lane for the real round trip, one
// for the staged layers, one for the twin statement.
func writeChromeTrace(path string, started time.Time, reqs []*traced) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []event
	for _, r := range reqs {
		t := r.trace
		lanes := make([]int, len(t.Spans))
		for i, s := range t.Spans {
			switch {
			case s.Parent < 0:
				lanes[i] = 0
			case s.Parent == 0:
				lanes[i] = map[string]int{spanRemote: 1, spanStaged: 2, spanTwin: 3}[s.Name]
			default:
				lanes[i] = lanes[s.Parent]
			}
			name := s.Name
			if s.Parent < 0 {
				name = "request " + t.Query
			}
			ev := event{Name: name, Ph: "X", Ts: us(t.Started.Sub(started) + s.Start), Dur: us(s.Dur), Pid: 1, Tid: lanes[i]}
			if len(s.Attrs) > 0 {
				ev.Args = map[string]string{}
				for _, a := range s.Attrs {
					ev.Args[a.Key] = a.Value
				}
			}
			events = append(events, ev)
		}
	}
	out, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
