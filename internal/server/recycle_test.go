package server

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"gapplydb/client"
	"gapplydb/xmlpub"
)

// The client reads row-batch and XML-chunk frames into buffers that
// their consumers give back, so these tests hold a multi-frame stream's
// output past the frames that follow it into the same buffers.

// Every row of two multi-frame queries on one connection is kept until
// both streams end: the rows decoded from the first frames must survive
// every later frame being read into their recycled buffers.
func TestRecycledFramesKeepRows(t *testing.T) {
	db := testDB(t)
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	const q = "select l_orderkey, l_linenumber, p_name, p_brand, l_extendedprice from lineitem, part where l_partkey = p_partkey"
	local, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Rows) < 4*batchMaxRows {
		t.Fatalf("%d rows: too few for a multi-frame stream", len(local.Rows))
	}
	for run := 0; run < 2; run++ {
		first, err := conn.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		second, err := conn.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave the two consumers so each one's frames land in
		// buffers the other gave back.
		var got [2][][]any
		for done := [2]bool{}; !done[0] || !done[1]; {
			for i, rows := range [...]*client.Rows{first, second} {
				if done[i] {
					continue
				}
				row, ok, err := rows.Next()
				if err != nil {
					t.Fatal(err)
				}
				if done[i] = !ok; ok {
					got[i] = append(got[i], row)
				}
			}
		}
		requireSameRows(t, fmt.Sprintf("run %d, first", run), local, first.Columns, got[0])
		requireSameRows(t, fmt.Sprintf("run %d, second", run), local, second.Columns, got[1])
	}
}

// lineDocSQL and lineDocPlan publish one element per lineitem row:
// a document larger than Q1's at the test scale factor and cheap to
// execute, so its frames are most of what a request allocates.
const lineDocSQL = "select l_orderkey, 0, l_linenumber, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount from lineitem"

var lineDocPlan = &xmlpub.TagPlan{RootTag: "lineitems", ElemTag: "order", KeyTag: "orderkey",
	Branches: []xmlpub.BranchPlan{{
		Wrap: "lineitem",
		Fields: []xmlpub.FieldSlot{
			{Ordinal: 2, Tag: "linenumber", Attr: true},
			{Ordinal: 3, Tag: "partkey"},
			{Ordinal: 4, Tag: "suppkey"},
			{Ordinal: 5, Tag: "quantity"},
			{Ordinal: 6, Tag: "extendedprice"},
			{Ordinal: 7, Tag: "discount"},
		},
	}}}

// A multi-frame document written into a writer that copies matches the
// in-process one byte for byte, also once the connection's buffers are
// all recycled ones.
func TestRecycledFramesXML(t *testing.T) {
	db := testDB(t)
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	local, err := db.QueryContext(ctx, lineDocSQL)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := xmlpub.TagAll(lineDocPlan, local.Rows, &want); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 4*xmlChunkBytes {
		t.Fatalf("%d document bytes: too few for a multi-frame stream", want.Len())
	}
	for run := 0; run < 3; run++ {
		var got bytes.Buffer
		if _, err := conn.QueryXML(ctx, lineDocSQL, lineDocPlan, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("run %d: documents differ (local %d bytes, remote %d)", run, want.Len(), got.Len())
		}
	}
}

// countingWriter keeps nothing of what it is given.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// Once warmed up, a multi-frame QueryXML reads its chunks into recycled
// buffers: client and server together allocate well under the document's
// size, where a new buffer per frame alone allocates all of it. The read
// loop allocates when it runs ahead of the consumer by more frames than
// the free list holds, which scheduling allows now and then, so the
// cheapest of a few requests is the one pinned.
func TestRecycledFramesXMLAllocations(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()
	run := func() int {
		var w countingWriter
		if _, err := conn.QueryXML(ctx, lineDocSQL, lineDocPlan, &w); err != nil {
			t.Fatal(err)
		}
		return w.n
	}
	run()
	doc, least := 0, uint64(1<<63)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		doc = run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("document %d B, allocated %d B", doc, least)
	if doc < 4*xmlChunkBytes {
		t.Fatalf("%d document bytes: too few for a multi-frame stream", doc)
	}
	if least >= uint64(doc)/4 {
		t.Fatalf("a warmed-up QueryXML allocated %d B for a %d B document; want under a quarter", least, doc)
	}
}
