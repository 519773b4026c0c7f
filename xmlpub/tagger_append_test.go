package xmlpub

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/internal/types"
)

// refTagAll is the tagger this package shipped before the append-based
// one, kept as the oracle the new one is compared against: one
// fmt.Fprintf per fragment, every cell escaped with xml.EscapeText.
func refTagAll(plan *TagPlan, rows [][]any) (string, error) {
	var w strings.Builder
	escaped := func(v any) string {
		switch x := v.(type) {
		case nil:
			return ""
		case int64:
			return strconv.FormatInt(x, 10)
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			return strconv.FormatBool(x)
		default:
			var out bytes.Buffer
			xml.EscapeText(&out, []byte(fmt.Sprint(x)))
			return out.String()
		}
	}
	field := func(f FieldSlot, row []any, suffix string) {
		if v := row[f.Ordinal]; v == nil {
			fmt.Fprintf(&w, "<%s/>%s", f.Tag, suffix)
		} else {
			fmt.Fprintf(&w, "<%s>%s</%s>%s", f.Tag, escaped(v), f.Tag, suffix)
		}
	}
	fmt.Fprintf(&w, "<%s>\n", plan.RootTag)
	open, curKey := false, ""
	for _, row := range rows {
		key := escaped(row[0])
		if !open || key != curKey {
			if open {
				fmt.Fprintf(&w, "  </%s>\n", plan.ElemTag)
			}
			open, curKey = true, key
			fmt.Fprintf(&w, "  <%s>\n    <%s>%s</%s>\n", plan.ElemTag, plan.KeyTag, key, plan.KeyTag)
		}
		branch, ok := row[1].(int64)
		if !ok || branch < 0 || int(branch) >= len(plan.Branches) {
			return "", fmt.Errorf("bad branch id %v", row[1])
		}
		bp := plan.Branches[branch]
		if bp.Wrap == "" {
			for _, f := range bp.Fields {
				fmt.Fprint(&w, "    ")
				field(f, row, "\n")
			}
			continue
		}
		fmt.Fprintf(&w, "    <%s", bp.Wrap)
		for _, f := range bp.Fields {
			if v := row[f.Ordinal]; f.Attr && v != nil {
				fmt.Fprintf(&w, ` %s="%s"`, f.Tag, escaped(v))
			}
		}
		fmt.Fprint(&w, ">")
		for _, f := range bp.Fields {
			if !f.Attr {
				field(f, row, "")
			}
		}
		fmt.Fprintf(&w, "</%s>\n", bp.Wrap)
	}
	if open {
		fmt.Fprintf(&w, "  </%s>\n", plan.ElemTag)
	}
	fmt.Fprintf(&w, "</%s>\n", plan.RootTag)
	return w.String(), nil
}

// escapeSeeds are the inputs the escaper has a special case for.
var escapeSeeds = []string{
	"", "plain", `<a href="x">Tom & Jerry's</a>`, "tab\tnl\ncr\r", "\x00\x01\x1f\x7f",
	"caf\u00e9 \u2013 na\u00efve", "\ufffd literal", "\ufffe and \uffff", "\U0001F600",
	"\xff\xfe bad", "cut \xe2\x82", "\xed\xa0\x80 surrogate", "mixed <\xc3> &\xe9",
}

// FuzzEscape holds the append-escaper byte-identical to xml.EscapeText,
// called directly and through the tagger in both positions a cell can
// take: element text and attribute value.
func FuzzEscape(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, in); err != nil {
			t.Fatal(err)
		}
		if got := appendEscaped(nil, string(in)); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendEscaped(%q) = %q, xml.EscapeText writes %q", in, got, want.Bytes())
		}
		// Appending must leave what is already in the buffer alone.
		if got := appendEscaped([]byte("x"), string(in)); !bytes.Equal(got[1:], want.Bytes()) || got[0] != 'x' {
			t.Fatalf("appendEscaped onto a prefix: %q", got)
		}
		// As a key, an attribute and an element's text.
		rows := [][]any{{string(in), int64(0), string(in), string(in)}}
		var doc strings.Builder
		if err := TagAll(attrPlan(), rows, &doc); err != nil {
			t.Fatal(err)
		}
		ref, err := refTagAll(attrPlan(), rows)
		if err != nil {
			t.Fatal(err)
		}
		if doc.String() != ref {
			t.Fatalf("document differs from the reference tagger's:\n%q\n%q", doc.String(), ref)
		}
		if err := checkWellFormed(doc.String()); err != nil {
			t.Fatalf("not well-formed: %v\n%q", err, doc.String())
		}
	})
}

// Every cell type in every position, NULLs included, against the
// reference tagger.
func TestTaggerMatchesReference(t *testing.T) {
	plan := &TagPlan{RootTag: "r", ElemTag: "e", KeyTag: "k", Branches: []BranchPlan{
		{Wrap: "w", Fields: []FieldSlot{{Ordinal: 2, Tag: "a", Attr: true}, {Ordinal: 3, Tag: "b", Attr: true}, {Ordinal: 4, Tag: "v"}, {Ordinal: 2, Tag: "again"}}},
		{Fields: []FieldSlot{{Ordinal: 3, Tag: "s"}, {Ordinal: 4, Tag: "u", Attr: true}}},
		{Wrap: "empty"},
	}}
	cells := []any{nil, int64(-7), int64(1 << 62), 2.5, 1e21, -0.0, true, false, "", "a<b", "q\"'"}
	var rows [][]any
	for i, k := range []any{nil, "", int64(1), int64(1), "1", 1.5, true, "k&"} {
		for b := int64(0); b < 3; b++ {
			rows = append(rows, []any{k, b, cells[(i+int(b))%len(cells)], cells[(i+3)%len(cells)], cells[(i*2+5)%len(cells)]})
		}
	}
	var doc strings.Builder
	if err := TagAll(plan, rows, &doc); err != nil {
		t.Fatal(err)
	}
	ref, err := refTagAll(plan, rows)
	if err != nil {
		t.Fatal(err)
	}
	if doc.String() != ref {
		t.Errorf("document differs from the reference tagger's:\n%s\n--- reference ---\n%s", doc.String(), ref)
	}
}

// A plan from the wire can name any ordinal: a negative or too-large one
// is an error on the first row that reaches it, never a panic.
func TestTaggerRejectsOrdinalOutsideRow(t *testing.T) {
	for _, ord := range []int{-1, 3, 1 << 40} {
		plan := &TagPlan{RootTag: "r", ElemTag: "e", KeyTag: "k",
			Branches: []BranchPlan{{Wrap: "w", Fields: []FieldSlot{{Ordinal: 2, Tag: "ok"}, {Ordinal: ord, Tag: "bad", Attr: true}}}}}
		err := TagAll(plan, [][]any{{int64(1), int64(0), "x"}}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("field ordinal %d out of range (3 columns)", ord)) {
			t.Errorf("ordinal %d: got %v", ord, err)
		}
	}
}

// writeCounter records each Write's size.
type writeCounter struct {
	sizes []int
	fail  error
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), w.fail
}

// Output reaches the writer once per Row and once for Close, starting
// with the first row: buffering inside the tagger must not delay the
// first byte or batch rows together.
func TestTaggerWritesOncePerRow(t *testing.T) {
	var w writeCounter
	tg := NewTagger(attrPlan(), &w)
	for i := 0; i < 5; i++ {
		if err := tg.Row([]any{int64(i / 2), int64(0), "a", "b"}); err != nil {
			t.Fatal(err)
		}
		if len(w.sizes) != i+1 || w.sizes[i] == 0 {
			t.Fatalf("after row %d: writes %v", i, w.sizes)
		}
	}
	if err := tg.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) != 6 {
		t.Fatalf("writes %v, want 5 rows + close", w.sizes)
	}
	// A failed write is final.
	w.fail = fmt.Errorf("sink closed")
	tg = NewTagger(attrPlan(), &w)
	if err := tg.Row([]any{int64(1), int64(0), "a", "b"}); err != w.fail {
		t.Fatalf("write error not returned: %v", err)
	}
	if err := tg.Close(); err != w.fail {
		t.Fatalf("write error not latched: %v", err)
	}
}

// figure8 is the paper's three example queries under both translations.
func figure8() (qs []*FLWR, names []string) {
	return []*FLWR{Q1(), Q2(), Q3(0.9, 1.1)}, []string{"Q1", "Q2", "Q3"}
}

// typedAndBoxed runs the statement twice: once for the engine's typed
// rows, once for the public API's boxed ones. The typed rows are copied
// out, since a stream's rows are only valid until it is closed.
func typedAndBoxed(tb testing.TB, db *gapplydb.Database, sqlText string) ([]types.Row, [][]any) {
	tb.Helper()
	st, err := db.Stream(sqlText)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	var typed []types.Row
	for {
		rows, ok, err := st.NextRows()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		for _, r := range rows {
			typed = append(typed, append(types.Row(nil), r...))
		}
	}
	res, err := db.Query(sqlText)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) != len(typed) {
		tb.Fatalf("%d boxed rows, %d typed", len(res.Rows), len(typed))
	}
	return typed, res.Rows
}

// The two cell adapters are one tagger: on the Figure 8 views, typed
// rows, boxed rows and the reference tagger give the same bytes.
func TestAdaptersAgreeOnFigure8Views(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	qs, names := figure8()
	for i, q := range qs {
		for _, s := range []Strategy{GApply, SortedOuterUnion} {
			typed, boxed := typedAndBoxed(t, db, q.SQL(s))
			plan := q.TagPlan()
			var fromTyped, fromBoxed bytes.Buffer
			tg := NewTagger(plan, &fromTyped)
			for _, r := range typed {
				if err := tg.TypedRow(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := tg.Close(); err != nil {
				t.Fatal(err)
			}
			if err := TagAll(plan, boxed, &fromBoxed); err != nil {
				t.Fatal(err)
			}
			ref, err := refTagAll(plan, boxed)
			if err != nil {
				t.Fatal(err)
			}
			if len(typed) == 0 || !bytes.Equal(fromTyped.Bytes(), fromBoxed.Bytes()) || fromBoxed.String() != ref {
				t.Errorf("%s/%s: %d rows; typed %d bytes, boxed %d, reference %d", names[i], s, len(typed), fromTyped.Len(), fromBoxed.Len(), len(ref))
			}
		}
	}
}

type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// The gain this tagger exists for is that a row costs no allocation;
// pin it so it cannot quietly rot. Warm-up lets the buffers reach the
// size of the widest row.
func TestTaggerRowDoesNotAllocate(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := Q1()
	typed, boxed := typedAndBoxed(t, db, q.SQL(GApply))
	for name, row := range map[string]func(*Tagger, int) error{
		"boxed": func(tg *Tagger, i int) error { return tg.Row(boxed[i]) },
		"typed": func(tg *Tagger, i int) error { return tg.TypedRow(typed[i]) },
	} {
		tg := NewTagger(q.TagPlan(), &discard{})
		for i := range typed { // warm-up
			if err := row(tg, i); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		perRow := testing.AllocsPerRun(len(typed), func() {
			if err := row(tg, i%len(typed)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if perRow > 0.1 {
			t.Errorf("%s adapter: %.2f allocations per row, want at most 0.1", name, perRow)
		}
	}
}

// tagBench measures the tagger alone on one Figure 8 query's rows:
// ns/row, MB/s of XML and allocs/row, for the boxed and the typed
// adapter.
func tagBench(b *testing.B, q *FLWR) {
	db, err := gapplydb.OpenTPCH(0.01)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	typed, boxed := typedAndBoxed(b, db, q.SQL(GApply))
	plan := q.TagPlan()
	run := func(b *testing.B, row func(*Tagger, int) error) {
		var out discard
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			tg := NewTagger(plan, &out)
			for i := range typed {
				if err := row(tg, i); err != nil {
					b.Fatal(err)
				}
			}
			if err := tg.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		rows := float64(b.N * len(typed))
		b.SetBytes(int64(out.n / b.N))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
	}
	b.Run("boxed", func(b *testing.B) { run(b, func(tg *Tagger, i int) error { return tg.Row(boxed[i]) }) })
	b.Run("typed", func(b *testing.B) { run(b, func(tg *Tagger, i int) error { return tg.TypedRow(typed[i]) }) })
}

func BenchmarkTagQ1(b *testing.B) { tagBench(b, Q1()) }
func BenchmarkTagQ2(b *testing.B) { tagBench(b, Q2()) }

// firstWrite runs a hook on the first Write.
type firstWrite struct {
	bytes.Buffer
	hook func()
}

func (w *firstWrite) Write(p []byte) (int, error) {
	if w.hook != nil {
		w.hook()
		w.hook = nil
	}
	return w.Buffer.Write(p)
}

// Publish tags rows as the engine produces them: the document starts
// reaching the writer while the statement is still open (the engine
// counts a query when its stream finishes), nothing is materialized into
// Result.Rows, and the timing and counters callers read are still there.
func TestPublishStreams(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := Q1()
	ref, err := db.Query(q.SQL(GApply))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := TagAll(q.TagPlan(), ref.Rows, &want); err != nil {
		t.Fatal(err)
	}
	finished := db.Metrics().Counters["queries"]
	var w firstWrite
	w.hook = func() {
		if n := db.Metrics().Counters["queries"]; n != finished {
			t.Errorf("first byte written after the query had finished (queries %d -> %d)", finished, n)
		}
	}
	res, err := Publish(db, q, GApply, &w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Error("streamed document differs from tagging the materialized rows")
	}
	if res.Rows != nil || len(res.Columns) != len(ref.Columns) || res.Elapsed <= 0 ||
		res.Stats.Groups != ref.Stats.Groups || res.Stats.RowsScanned != ref.Stats.RowsScanned {
		t.Errorf("result: rows %v, columns %v, elapsed %v, stats %+v; want no rows and the query's %+v", res.Rows != nil, res.Columns, res.Elapsed, res.Stats, ref.Stats)
	}
	if n := db.Metrics().Counters["queries"]; n != finished+1 {
		t.Errorf("queries counter %d -> %d, want one more", finished, n)
	}
}
