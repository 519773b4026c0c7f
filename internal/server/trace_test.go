package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/trace"
	"gapplydb/xmlpub"
)

// TestClientIssuedTraceRoundTrip pins the acceptance criterion: a
// client-issued trace ID comes back in the End frame, and the full
// trace — admission wait through operator spans — is retrievable from
// the server's flight recorder and /debug/traces.
func TestClientIssuedTraceRoundTrip(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)

	id := gapplydb.NewTraceID()
	rows, err := conn.Query(context.Background(),
		"select gapply(select count(*) from g) as (cnt) from partsupp group by ps_suppkey : g",
		gapplydb.WithTraceID(id))
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, rows)
	if rows.Stats().TraceID != id {
		t.Fatalf("End frame echoed %s, want %s", rows.Stats().TraceID, id)
	}

	tr := srv.db.Traces().Get(id)
	if tr == nil {
		t.Fatal("trace not in the server's flight recorder")
	}
	if tr.Status != "ok" {
		t.Fatalf("status %q, want ok", tr.Status)
	}
	// The server side of the span tree: admission before the engine
	// phases, all hanging off the root.
	for _, name := range []string{"admission", "execute"} {
		idx := tr.Find(name)
		if len(idx) != 1 || tr.Spans[idx[0]].Parent != 0 {
			t.Fatalf("span %q missing or misparented\n%s", name, tr)
		}
	}
	if tr.PlanHash == "" {
		t.Fatalf("trace lost the plan hash\n%s", tr)
	}

	// The same trace over HTTP, by ID and in the listing.
	h := srv.HTTPHandler()
	get := func(path string) (int, string) {
		req, rec := newHTTPRequest(t, path)
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	code, body := get("/debug/traces/" + id.String())
	if code != 200 || !strings.Contains(body, id.String()) {
		t.Fatalf("/debug/traces/<id> = %d %q", code, body)
	}
	var doc trace.Trace
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if doc.ID != id || len(doc.Spans) != len(tr.Spans) {
		t.Fatalf("HTTP trace diverges from recorder: %d vs %d spans", len(doc.Spans), len(tr.Spans))
	}
	if code, body := get("/debug/traces"); code != 200 || !strings.Contains(body, id.String()) {
		t.Fatalf("/debug/traces listing = %d, contains id = %v", code, strings.Contains(body, id.String()))
	}
	// Chrome export is valid JSON with the standard top-level key.
	code, body = get("/debug/traces/" + id.String() + "?format=chrome")
	if code != 200 {
		t.Fatalf("chrome export = %d %q", code, body)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	if len(chrome.TraceEvents) < len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}
	if code, _ := get("/debug/traces/" + trace.NewID().String()); code != 404 {
		t.Fatalf("unknown trace id = %d, want 404", code)
	}
	if code, _ := get("/debug/traces/not-hex"); code != 400 {
		t.Fatalf("malformed trace id = %d, want 400", code)
	}
}

// TestTraceIDOnServerError: a traced query that fails still echoes its
// ID on the Error frame and leaves an error-status trace behind.
func TestTraceIDOnServerError(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)

	id := gapplydb.NewTraceID()
	_, err := conn.Query(context.Background(), "select utter nonsense", gapplydb.WithTraceID(id))
	if err == nil {
		t.Fatal("bad statement succeeded")
	}
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %T, want *client.ServerError", err)
	}
	if se.TraceID != id {
		t.Fatalf("Error frame echoed %s, want %s", se.TraceID, id)
	}
	tr := srv.db.Traces().Get(id)
	if tr == nil || tr.Status != "error" {
		t.Fatalf("failed query's trace: %+v", tr)
	}
}

// TestTraceIDOnTaggerError: in XML mode the statement can run cleanly
// and the tagger still reject its rows (here the plan reads a column the
// result does not have, negative ordinal included). That Error frame
// must echo the trace ID like every other failure on the path, and the
// session must survive it.
func TestTraceIDOnTaggerError(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)

	for _, ord := range []int{9, -1} {
		plan := &xmlpub.TagPlan{RootTag: "r", ElemTag: "e", KeyTag: "k",
			Branches: []xmlpub.BranchPlan{{Fields: []xmlpub.FieldSlot{{Ordinal: ord, Tag: "v"}}}}}
		id := gapplydb.NewTraceID()
		var doc bytes.Buffer
		_, err := conn.QueryXML(context.Background(),
			"select p_partkey, 0, p_name from part", plan, &doc, gapplydb.WithTraceID(id))
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("ordinal %d: error %v (%T), want *client.ServerError", ord, err, err)
		}
		if se.Code != client.CodeInternal || !strings.Contains(se.Message, "out of range") {
			t.Fatalf("ordinal %d: error %+v, want the tagger's ordinal error", ord, se)
		}
		if se.TraceID != id {
			t.Fatalf("ordinal %d: Error frame echoed %s, want %s", ord, se.TraceID, id)
		}
		if srv.db.Traces().Get(id) == nil {
			t.Fatalf("ordinal %d: the failed request's trace is not in the flight recorder", ord)
		}
	}
	if err := conn.Ping(context.Background()); err != nil {
		t.Fatalf("session did not survive the tagger error: %v", err)
	}
}

// TestSessionTraceSampling: `Set trace_sampling` turns head sampling on
// for untagged queries, deterministically under a seeded sampler.
func TestSessionTraceSampling(t *testing.T) {
	srv := startServer(t, Config{})
	srv.SeedTraceSampler(42)
	conn := dial(t, srv)

	if err := conn.Set("trace_sampling", "1"); err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query(context.Background(), "select count(*) from part")
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, rows)
	sampled := rows.Stats().TraceID
	if sampled.IsZero() {
		t.Fatal("p=1 session produced no trace ID")
	}
	if srv.db.Traces().Get(sampled) == nil {
		t.Fatal("sampled trace not retained")
	}

	if err := conn.Set("trace_sampling", "0"); err != nil {
		t.Fatal(err)
	}
	rows, err = conn.Query(context.Background(), "select count(*) from part")
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, rows)
	if !rows.Stats().TraceID.IsZero() {
		t.Fatal("p=0 session traced a query")
	}

	// Back to the server default (0 here), and validation rejects junk.
	if err := conn.Set("trace_sampling", "default"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"-0.5", "1.5", "lots"} {
		if err := conn.Set("trace_sampling", bad); err == nil {
			t.Fatalf("trace_sampling=%q accepted", bad)
		}
	}
}
