package gapplydb_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gapplydb"
	"gapplydb/internal/types"
	"gapplydb/replay"
	"gapplydb/xmlpub"
)

// A stream's rows are carved from the database's row storage, which its
// Close recycles for later queries. With that storage poisoned on
// release, and the poison left in place when it is reused, every
// document xmlpub.Publish streams and every result read through
// db.Stream must still match its reference byte for byte: nothing — the
// engine, the tagger, Publish —
// may read a row after its stream is closed or a slot before it is
// written, and two live executions may not share storage. db.Query
// drains the same kind of stream, so the references are computed before
// the poison is switched on, and a corpus query with a checked-in golden
// is compared against the golden instead.
// It runs in CI's -race step, which covers the parallel GApply workers
// taking storage from their query's arena.
func TestPoisonedStreamsMatchQuery(t *testing.T) {
	t.Run("views", func(t *testing.T) {
		db, err := gapplydb.OpenTPCH(0.002)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		type run struct {
			name     string
			q        *xmlpub.FLWR
			strategy xmlpub.Strategy
			dop      int
			want     []byte
		}
		both := []xmlpub.Strategy{xmlpub.GApply, xmlpub.SortedOuterUnion}
		views := []struct {
			name       string
			q          *xmlpub.FLWR
			strategies []xmlpub.Strategy
		}{
			{"Q1", xmlpub.Q1(), both},
			{"Q2", xmlpub.Q2(), both},
			{"Q3", xmlpub.Q3(0.9, 1.1), both},
			{"orders", ordersView(400), []xmlpub.Strategy{xmlpub.GApply}},
		}
		var runs []run
		for _, dop := range []int{1, 2, 8} {
			for _, v := range views {
				for _, s := range v.strategies {
					res, err := db.Query(v.q.SQL(s), gapplydb.WithDOP(dop))
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					if err := xmlpub.TagAll(v.q.TagPlan(), res.Rows, &want); err != nil {
						t.Fatal(err)
					}
					runs = append(runs, run{fmt.Sprintf("%s/%s/dop%d", v.name, s, dop), v.q, s, dop, want.Bytes()})
				}
			}
		}
		gapplydb.PoisonReleasedRows(t)
		for _, r := range runs {
			t.Run(r.name, func(t *testing.T) {
				var got bytes.Buffer
				if _, err := xmlpub.Publish(db, r.q, r.strategy, &got, gapplydb.WithDOP(r.dop)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), r.want) {
					t.Fatalf("Publish wrote %d bytes, Query + TagAll %d, or they differ", got.Len(), len(r.want))
				}
			})
		}
	})
	t.Run("corpus", func(t *testing.T) {
		c, err := replay.Load("testdata/corpus")
		if err != nil {
			t.Fatal(err)
		}
		db := integDatabase(t)
		ctx := context.Background()
		type run struct {
			q    *replay.Query
			dop  int
			want []byte
		}
		var runs []run
		for _, q := range c.Queries {
			if q.CancelAfterRows > 0 || q.Expect.Error != "" {
				continue // no complete result to compare
			}
			for _, dop := range []int{1, 2, 8} {
				if q.DOP > 0 && dop != 1 {
					continue
				}
				var want []byte
				if q.Expect.Golden {
					if want, err = c.Golden(q); err != nil {
						t.Fatal(err)
					}
				} else {
					out, err := replay.RunLocal(ctx, db, q, dop)
					if err != nil || out.Code != "" {
						t.Fatalf("%s: Query: %v %v", q.Name, err, out.Err)
					}
					want = out.Rendered
				}
				runs = append(runs, run{q, dop, want})
			}
		}
		gapplydb.PoisonReleasedRows(t)
		for _, r := range runs {
			q := r.q
			t.Run(fmt.Sprintf("%s/dop%d", q.Name, r.dop), func(t *testing.T) {
				opts := gapplydb.WithOptions(q.Options(r.dop))
				// Two executions of the statement at once, pulled in
				// turn, their rows all kept until both have ended.
				a, err := db.StreamContext(ctx, q.SQL, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				b, err := db.StreamContext(ctx, q.SQL, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				for i, rows := range drainTogether(t, a, b) {
					var got []byte
					if q.Kind == replay.KindXML {
						var doc bytes.Buffer
						tg := xmlpub.NewTagger(q.TagPlan, &doc)
						for _, r := range rows {
							if err := tg.TypedRow(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := tg.Close(); err != nil {
							t.Fatal(err)
						}
						got = doc.Bytes()
					} else {
						got = replay.RenderRows(a.Columns, boxed(rows))
					}
					if err := replay.DiffRendered(got, r.want); err != nil {
						t.Fatalf("stream %d vs reference: %v", i, err)
					}
				}
			})
		}
	})
}

// drainTogether pulls the streams in turn, one batch each, until all are
// exhausted, and returns every stream's rows: headers kept, values not
// copied, which the ownership contract allows until the stream is closed.
func drainTogether(t *testing.T, streams ...*gapplydb.Stream) [][]types.Row {
	t.Helper()
	out := make([][]types.Row, len(streams))
	done := make([]bool, len(streams))
	for left := len(streams); left > 0; {
		for i, s := range streams {
			if done[i] {
				continue
			}
			rows, ok, err := s.NextRows()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				done[i] = true
				left--
				continue
			}
			out[i] = append(out[i], rows...)
		}
	}
	return out
}

// boxed converts typed rows to the public API's boxed form.
func boxed(rows []types.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for j, v := range r {
			out[i][j] = v.Go()
		}
	}
	return out
}

// A row kept past its stream's Close reads as poison: the storage went
// back to the store, and the poison switch makes that visible.
func TestRowKeptPastCloseReadsAsPoison(t *testing.T) {
	gapplydb.PoisonReleasedRows(t)
	db := integDatabase(t)
	// A join's output rows are carved from the execution's storage, not
	// the table's.
	st, err := db.Stream("select p_partkey, p_name, ps_suppkey from part, partsupp where p_partkey = ps_partkey")
	if err != nil {
		t.Fatal(err)
	}
	rows, ok, err := st.NextRows()
	if err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	kept := rows[0]
	before := append(types.Row(nil), kept...)
	for _, v := range before {
		if v.IsNull() {
			t.Fatalf("fixture row has a NULL before Close: %v", before)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i, v := range kept {
		if undefined := v.K.String() == fmt.Sprintf("Kind(%d)", uint8(v.K)); !undefined {
			t.Fatalf("column %d read %v before Close and %v (%s) after, want poison: an undefined kind", i, before[i], v, v.K)
		}
	}
}

// Query's rows outlive the stream it drains: they are copied out of the
// execution's arena before its Close recycles the storage. With released
// storage poisoned, a Result reads — boxed, typed and rendered — as a
// Result computed before the poison did, both when Query returns and
// after later streams have reused the slabs it ran on.
func TestQueryRowsOutliveRecycling(t *testing.T) {
	db := integDatabase(t)
	// A join's and a GApply's output rows are carved from the
	// execution's storage, not the table's.
	queries := []string{
		"select p_partkey, p_name, ps_suppkey, ps_supplycost from part, partsupp where p_partkey = ps_partkey",
		xmlpub.Q3(0.9, 1.1).SQL(xmlpub.GApply),
	}
	// The references are read out of their Results at once: a copy of
	// every typed value, the boxed rows and the rendering.
	type reading struct {
		rows  [][]any
		typed []types.Row
		text  string
	}
	read := func(res *gapplydb.Result) reading {
		r := reading{rows: res.Rows, text: res.String()}
		for _, row := range gapplydb.TypedRows(res) {
			r.typed = append(r.typed, append(types.Row(nil), row...))
		}
		return r
	}
	refs := make([]reading, len(queries))
	for i, q := range queries {
		res, err := db.Query(q, gapplydb.WithDOP(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		refs[i] = read(res)
	}
	gapplydb.PoisonReleasedRows(t)
	check := func(when string, ref reading, res *gapplydb.Result) {
		t.Helper()
		got := read(res)
		if !reflect.DeepEqual(got.rows, ref.rows) {
			t.Fatalf("%s: Result.Rows differ from the reference", when)
		}
		if !reflect.DeepEqual(got.typed, ref.typed) {
			t.Fatalf("%s: TypedRows differ from the reference", when)
		}
		if got.text != ref.text {
			t.Fatalf("%s: String() differs from the reference", when)
		}
	}
	for i, q := range queries {
		res, err := db.Query(q, gapplydb.WithDOP(1))
		if err != nil {
			t.Fatal(err)
		}
		check("at return", refs[i], res)
		for range 4 {
			for _, other := range queries {
				drainStream(t, db, other, gapplydb.WithDOP(1))
			}
		}
		check("after the storage was reused", refs[i], res)
	}
}

// Steady-state streams reuse their row storage instead of allocating
// it: a repeat of a GApply and a sorted outer union publishing query
// allocates a fraction of its first run's bytes on a new database — the
// first run pays the compile, the plan-cache miss and the storage; later
// ones pay neither storage nor compile, nor hash tables, whose arrays
// the store keeps with the rows. The GApply query repeats in an eighth
// of its first run's bytes; the sorted outer union keeps its sort-key
// buffers (types.OrderKeys), which are not recycled, and repeats in a
// quarter. db.Query runs the same stream and pays only for the rows it
// hands out, copied and boxed: the GApply query repeats in under half.
// The store belongs to the database, not to the GC: a repeat after two
// collections is as cheap.
func TestStreamRecyclesRowStorage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sql   string
		query bool // through db.Query rather than db.Stream
		share float64
	}{
		{"Q3/gapply", xmlpub.Q3(0.9, 1.1).SQL(xmlpub.GApply), false, 1.0 / 8},
		{"Q1/sorted", xmlpub.Q1().SQL(xmlpub.SortedOuterUnion), false, 1.0 / 4},
		{"Query/Q3/gapply", xmlpub.Q3(0.9, 1.1).SQL(xmlpub.GApply), true, 1.0 / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := gapplydb.OpenTPCH(0.01)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			first := runBytes(t, db, tc.sql, tc.query)
			runBytes(t, db, tc.sql, tc.query)
			steady := runBytes(t, db, tc.sql, tc.query)
			runtime.GC()
			runtime.GC()
			collected := runBytes(t, db, tc.sql, tc.query)
			t.Logf("first run %d B, steady state %d B (%.2f), after two collections %d B (%.2f)",
				first, steady, float64(steady)/float64(first), collected, float64(collected)/float64(first))
			for _, r := range []struct {
				when  string
				bytes uint64
			}{{"steady-state run", steady}, {"run after two collections", collected}} {
				if float64(r.bytes) > tc.share*float64(first) {
					t.Errorf("%s allocated %d B, over %.0f%% of the first run's %d B", r.when, r.bytes, 100*tc.share, first)
				}
			}
		})
	}
}

// Close drops the database's row storage: once a closed database is
// unreachable, one collection frees all it held, its tables and every
// slab its executions shared, where storage recycled past its database
// kept the rows it last pointed at alive. A stream that was open when
// Close began, and is closed only after Close has returned, hands its
// storage to the closed store, which drops it.
func TestCloseDropsRowStorage(t *testing.T) {
	const slack = 2 << 20
	base := liveHeap()
	loaded := queryAndClose(t)
	after := liveHeap()
	t.Logf("live heap: %d B before open, %d B loaded, %d B after Close and one collection", base, loaded, after)
	if after > base+slack {
		t.Fatalf("%d B of a closed database stay live after one collection, want at most %d", after-base, slack)
	}
}

// queryAndClose opens an sf 0.05 database, runs Figure 8 Q1–Q3 through
// Query, closes it under an open stream and closes the stream after, and
// returns the live heap with the database loaded.
func queryAndClose(t *testing.T) uint64 {
	db, err := gapplydb.OpenTPCH(0.05)
	if err != nil {
		t.Fatal(err)
	}
	loaded := liveHeap()
	for _, q := range []*xmlpub.FLWR{xmlpub.Q1(), xmlpub.Q2(), xmlpub.Q3(0.9, 1.1)} {
		for _, s := range []xmlpub.Strategy{xmlpub.GApply, xmlpub.SortedOuterUnion} {
			if _, err := db.Query(q.SQL(s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := db.Stream("select p_partkey, p_name, ps_suppkey from part, partsupp where p_partkey = ps_partkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.NextRows(); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	for {
		if _, ok, err := st.NextRows(); err != nil || !ok {
			break // cancelled by Close, or exhausted first
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	st.Close()
	return loaded
}

// liveHeap collects and returns the bytes of the objects left live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runBytes runs sql serially to completion, through db.Query or by
// draining db.Stream, and returns the bytes the process allocated
// meanwhile.
func runBytes(t *testing.T, db *gapplydb.Database, sql string, query bool) uint64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if query {
		if _, err := db.Query(sql, gapplydb.WithDOP(1)); err != nil {
			t.Fatal(err)
		}
	} else {
		drainStream(t, db, sql, gapplydb.WithDOP(1))
	}
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// drainStream runs sql through db.Stream to exhaustion and closes it.
func drainStream(t testing.TB, db *gapplydb.Database, sql string, opts ...gapplydb.QueryOption) {
	t.Helper()
	st, err := db.Stream(sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		_, ok, err := st.NextRows()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}

// A point lookup's stream makes 17 allocations, under the race detector
// too: its row storage, the projection's row headers and the filter's
// selection included, is taken from and returned to the database's
// store, the plan-cache key is built in one exact-size buffer without
// fmt, the options are applied into the stream itself, the output
// schema and column names come derived from the plan-cache entry (the
// stream's names in one copy), and the filter and projection are one
// program whose filter compares the column with the plan's literal in
// place.
func TestPointLookupStreamAllocs(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const point = "select s_name, s_acctbal from supplier where s_suppkey = 7"
	drainStream(t, db, point) // compile and cache the plan
	if n := testing.AllocsPerRun(100, func() { drainStream(t, db, point) }); n > 17 {
		t.Fatalf("point lookup stream: %.1f allocations, want ≤ 17", n)
	}
}
