package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/opt"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, Type(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != Type(i+1) {
			t.Fatalf("frame %d: type %v, want %v", i, typ, Type(i+1))
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// A legitimate frame larger than the reader's limit.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeRowBatch, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// A corrupt header declaring a huge payload must be rejected before
	// any allocation, not after an attempted read.
	hdr := []byte{byte(TypeRowBatch), 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("corrupt header err = %v, want ErrFrameTooLarge", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []any{nil, int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
		3.14, math.Inf(1), 0.0, "", "héllo\x00world", true, false}
	var e Enc
	for _, v := range vals {
		if err := PutValue(&e, v); err != nil {
			t.Fatal(err)
		}
	}
	d := Dec{B: e.B}
	for i, want := range vals {
		got := d.Value()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("value %d: %#v, want %#v", i, got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// int travels as int64.
	var e2 Enc
	if err := PutValue(&e2, 7); err != nil {
		t.Fatal(err)
	}
	d2 := Dec{B: e2.B}
	if got := d2.Value(); got != int64(7) {
		t.Fatalf("int decoded as %#v, want int64(7)", got)
	}
	// Unsupported types must be rejected, not silently mangled.
	var e3 Enc
	if err := PutValue(&e3, struct{}{}); err == nil {
		t.Fatal("PutValue(struct{}{}) succeeded")
	}
}

func TestQueryMsgRoundTrip(t *testing.T) {
	m := &QueryMsg{
		ID:  42,
		SQL: "select gapply(select * from g) from t group by k : g",
		Opts: Opts{
			Timeout: 250 * time.Millisecond, MaxOutputRows: 10, MaxPartitionBytes: 1 << 20, DOP: 8,
		},
		XML: true, TagPlan: []byte(`{"RootTag":"r"}`),
	}
	got, err := DecodeQuery(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := [][]any{
		{int64(1), "a", nil},
		{int64(2), "b", 2.5},
		{nil, "", false},
	}
	p, err := EncodeRowBatch(9, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeRowBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || !reflect.DeepEqual(got, rows) {
		t.Fatalf("id=%d rows=%v, want 9 %v", id, got, rows)
	}
	if _, err := EncodeRowBatch(9, 2, rows); err == nil {
		t.Fatal("width mismatch accepted")
	}
	// Empty batch (header-only) round-trips.
	p, err = EncodeRowBatch(9, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err = DecodeRowBatch(p); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: rows=%v err=%v", got, err)
	}
}

func TestHandshakeMessages(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil || v != ProtocolVersion {
		t.Fatalf("hello: v=%d err=%v", v, err)
	}
	var bad Enc
	bad.U32(0xdeadbeef)
	bad.U32(ProtocolVersion)
	if _, err := DecodeHello(bad.B); err == nil {
		t.Fatal("bad magic accepted")
	}
	v, banner, err := DecodeWelcome(EncodeWelcome("gapplyd test"))
	if err != nil || v != ProtocolVersion || banner != "gapplyd test" {
		t.Fatalf("welcome: v=%d banner=%q err=%v", v, banner, err)
	}
}

// TestHelloWelcomeByteCompat pins the handshake payloads to their
// original format: magic and version for Hello, version and banner for
// Welcome.
func TestHelloWelcomeByteCompat(t *testing.T) {
	var oldHello Enc
	oldHello.U32(Magic)
	oldHello.U32(ProtocolVersion)
	if !bytes.Equal(EncodeHello(), oldHello.B) {
		t.Errorf("EncodeHello changed: %x != %x", EncodeHello(), oldHello.B)
	}
	var oldWelcome Enc
	oldWelcome.U32(ProtocolVersion)
	oldWelcome.Str("b")
	if !bytes.Equal(EncodeWelcome("b"), oldWelcome.B) {
		t.Errorf("EncodeWelcome changed")
	}
}

// TestQueryOptionsExtension hand-builds the Query frame that older
// peers put on the wire — a Query followed by a block of plan pins
// (partition, forced and disabled rule lists) — and checks that the
// pins decode into the same settings the block carries today.
func TestQueryOptionsExtension(t *testing.T) {
	strList := func(e *Enc, ss ...string) {
		e.U32(uint32(len(ss)))
		for _, s := range ss {
			e.Str(s)
		}
	}
	var tid [16]byte
	tid[0], tid[15] = 0xaa, 0x55
	for _, traced := range []bool{false, true} {
		want := &QueryMsg{ID: 9, SQL: "select * from partsupp", Opts: Opts{
			Timeout: time.Second, MaxOutputRows: 10, MaxPartitionBytes: 1 << 20, DOP: 2,
		}, XML: true, TagPlan: []byte(`{"root":"r"}`)}
		var e Enc
		e.U64(want.ID)
		e.Str(want.SQL)
		e.I64(int64(want.Timeout))
		e.I64(want.MaxOutputRows)
		e.I64(want.MaxPartitionBytes)
		e.U32(uint32(want.DOP))
		e.U8(1)
		e.Bytes(want.TagPlan)
		if traced {
			want.Trace = tid
			e.U8(1)
			e.B = append(e.B, tid[:]...)
		} else {
			e.U8(0) // the trace field's presence byte, held open for the pins
		}
		e.U8(1)
		e.Str("sort")
		strList(&e, "gapply-to-groupby")
		strList(&e, "invariant-grouping", "push-down-selections")
		want.Partition = core.PartitionSort
		want.ForceRules = map[string]bool{"gapply-to-groupby": true}
		want.DisableRules = map[string]bool{"invariant-grouping": true, "push-down-selections": true}
		got, err := DecodeQuery(e.B)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query with pins (traced=%v): %+v err=%v, want %+v", traced, got, err, want)
		}
		// Today's encoder writes the same block, with the flags and the
		// sampling probability after it.
		if enc := want.Encode(); !bytes.Equal(enc[:len(e.B)], e.B) || len(enc) != len(e.B)+9 {
			t.Fatalf("encoded block (traced=%v) differs from the pins: %x, want %x + 9 bytes", traced, enc, e.B)
		}
	}
}

// TestHelloMaxRoundTrip checks that a Hello and a Welcome from older
// peers, followed by a proposed frame limit, decode to the same
// version and banner with the limit ignored.
func TestHelloMaxRoundTrip(t *testing.T) {
	var hello Enc
	hello.U32(Magic)
	hello.U32(ProtocolVersion)
	hello.U32(256 << 10)
	if v, err := DecodeHello(hello.B); err != nil || v != ProtocolVersion {
		t.Fatalf("hello with frame limit: v=%d err=%v", v, err)
	}
	var welcome Enc
	welcome.U32(ProtocolVersion)
	welcome.Str("srv")
	welcome.U32(256 << 10)
	if v, banner, err := DecodeWelcome(welcome.B); err != nil || v != ProtocolVersion || banner != "srv" {
		t.Fatalf("welcome with frame limit: v=%d banner=%q err=%v", v, banner, err)
	}
}

func TestControlMessages(t *testing.T) {
	h := &RowHeaderMsg{ID: 3, Columns: []string{"a", "b.c"}}
	gh, err := DecodeRowHeader(h.Encode())
	if err != nil || !reflect.DeepEqual(gh, h) {
		t.Fatalf("header: %+v err=%v", gh, err)
	}
	e := &EndMsg{ID: 3, Rows: 100, Elapsed: time.Second,
		Stats: []StatPair{{"rows_scanned", 5}, {"groups", 2}}}
	ge, err := DecodeEnd(e.Encode())
	if err != nil || !reflect.DeepEqual(ge, e) {
		t.Fatalf("end: %+v err=%v", ge, err)
	}
	em := &ErrorMsg{ID: 3, Code: CodeBusy, Message: "queue full"}
	gem, err := DecodeError(em.Encode())
	if err != nil || !reflect.DeepEqual(gem, em) {
		t.Fatalf("error: %+v err=%v", gem, err)
	}
	id, err := DecodeID(EncodeID(77))
	if err != nil || id != 77 {
		t.Fatalf("id: %d err=%v", id, err)
	}
	s := &SetMsg{ID: 4, Name: "timeout", Value: "5s"}
	gs, err := DecodeSet(s.Encode())
	if err != nil || !reflect.DeepEqual(gs, s) {
		t.Fatalf("set: %+v err=%v", gs, err)
	}
	var c Chunk
	c.Begin(4)
	c.Write([]byte("stale"))
	c.Begin(5) // reuses the buffer, discarding the last chunk
	c.Write([]byte("<a"))
	c.Write([]byte("/>"))
	if c.Len() != 4 {
		t.Fatalf("chunk holds %d document bytes, want 4", c.Len())
	}
	payload := c.Payload()
	cid, chunk, err := DecodeChunk(payload)
	if err != nil || cid != 5 || string(chunk) != "<a/>" {
		t.Fatalf("chunk: id=%d b=%q err=%v", cid, chunk, err)
	}
	// The document bytes alias the payload: decoding copies nothing.
	if &chunk[0] != &payload[len(payload)-len(chunk)] {
		t.Fatal("DecodeChunk copied the document bytes")
	}
}

func TestTruncatedPayloadsLatchError(t *testing.T) {
	m := &QueryMsg{ID: 1, SQL: "select 1"}
	full := m.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeQuery(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeRowBatch([]byte{1, 2}); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("short batch err = %v", err)
	}
}

// TestQueryOptionsEveryField sets each setting by its text name, sends
// it through a Query frame and back, and checks that the plan-cache
// fingerprint tells exactly the plan-affecting ones from the zero
// settings. The table must cover every field of the struct but
// Instrument, which has no name and does not travel.
func TestQueryOptionsEveryField(t *testing.T) {
	cases := []struct {
		name, value string
		plan        bool // changes the plan-cache fingerprint
	}{
		{"dop", "4", false},
		{"timeout", "250ms", false},
		{"max_output_rows", "10", false},
		{"max_partition_bytes", "1048576", false},
		{"partition", "sort", true},
		{"disable_rules", "gapply-to-groupby,invariant-grouping", true},
		{"force_rules", "invariant-grouping", true},
		{"no_indexes", "on", true},
		{"skip_optimizer", "true", true},
		{"no_plan_cache", "1", false},
		{"trace_id", "0102030405060708090a0b0c0d0e0f10", false},
		{"force_trace", "on", false},
		{"trace_sampling", "0.25", false},
	}
	zeroPrint := string(Opts{}.AppendFingerprint(nil))
	covered := map[string]bool{}
	var all Opts
	for _, c := range cases {
		var o Opts
		if err := o.Set(c.name, c.value); err != nil {
			t.Fatalf("Set(%s, %s): %v", c.name, c.value, err)
		}
		if err := all.Set(c.name, c.value); err != nil {
			t.Fatal(err)
		}
		changed := setFields(o)
		if len(changed) == 0 {
			t.Fatalf("Set(%s, %s) changed no field", c.name, c.value)
		}
		for _, f := range changed {
			covered[f] = true
		}
		m := &QueryMsg{ID: 5, SQL: "select 1", Opts: o}
		got, err := DecodeQuery(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip %+v err=%v, want %+v", c.name, got, err, m)
		}
		if differs := string(o.AppendFingerprint(nil)) != zeroPrint; differs != c.plan {
			t.Errorf("%s: fingerprint differs from the zero settings' = %v, want %v", c.name, differs, c.plan)
		}
	}
	if err := all.Set("instrument", "on"); err == nil {
		t.Error(`Set("instrument", "on") succeeded; the profile never leaves the process`)
	}
	covered["Instrument"] = true
	for _, f := range allFields(reflect.TypeOf(Opts{})) {
		if !covered[f] {
			t.Errorf("field %s is set by no case", f)
		}
	}
	m := &QueryMsg{ID: 6, SQL: "select 2", Opts: all, XML: true, TagPlan: []byte("{}")}
	if got, err := DecodeQuery(m.Encode()); err != nil || !reflect.DeepEqual(got, m) {
		t.Errorf("every setting at once: %+v err=%v, want %+v", got, err, m)
	}
	instrumented := *m
	instrumented.Instrument = true
	if got := instrumented.Encode(); !bytes.Equal(got, m.Encode()) {
		t.Errorf("Instrument travels: %x, without it %x", got, m.Encode())
	}
}

// TestDecodeQueryRejects: a Query frame whose settings no Set could
// have made — as a peer may send — is a protocol error, so the network
// checks a setting as strictly as a session's Set does.
func TestDecodeQueryRejects(t *testing.T) {
	frame := func(o Opts) []byte { return (&QueryMsg{ID: 3, SQL: "select 1", Opts: o}).Encode() }
	unknownFlag := frame(Opts{ForceTrace: true})
	unknownFlag[len(unknownFlag)-9] |= 0x80 // the flags byte precedes the 8-byte sampling probability
	for name, p := range map[string][]byte{
		"unknown disabled rule": frame(Opts{Options: opt.Options{DisableRules: map[string]bool{"no-such-rule": true}}}),
		"unknown forced rule":   frame(Opts{Options: opt.Options{ForceRules: map[string]bool{"gapply-to-groupby": true, "": true}}}),
		"NaN sampling":          frame(Opts{TraceSampling: math.NaN()}),
		"negative sampling":     frame(Opts{TraceSampling: -0.5}),
		"sampling above one":    frame(Opts{TraceSampling: 2}),
		"unknown flag":          unknownFlag,
	} {
		if m, err := DecodeQuery(p); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
	for _, p := range []float64{-1, 0.5, 1} {
		if _, err := DecodeQuery(frame(Opts{TraceSampling: p})); err != nil {
			t.Errorf("sampling %v: %v", p, err)
		}
	}
}

// allFields lists a struct's field names, embedded structs flattened.
func allFields(typ reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Anonymous {
			out = append(out, allFields(f.Type)...)
		} else {
			out = append(out, f.Name)
		}
	}
	return out
}

// setFields lists the fields of o that are not zero.
func setFields(o Opts) []string {
	var out []string
	v := reflect.ValueOf(o)
	for _, f := range allFields(v.Type()) {
		if !v.FieldByName(f).IsZero() {
			out = append(out, f)
		}
	}
	return out
}

// FuzzDecodeQuery feeds the Query-frame decoder arbitrary payloads: it
// must never panic, and whatever decodes must re-encode to a frame that
// decodes to the same message and encodes to the same bytes again.
func FuzzDecodeQuery(f *testing.F) {
	var all Opts
	for _, kv := range [][2]string{
		{"dop", "-1"}, {"timeout", "1s"}, {"partition", "hash"}, {"disable_rules", "gapply-to-groupby"},
		{"force_rules", "invariant-grouping"}, {"no_indexes", "on"}, {"force_trace", "on"}, {"trace_sampling", "0"},
	} {
		if err := all.Set(kv[0], kv[1]); err != nil {
			f.Fatal(err)
		}
	}
	f.Add((&QueryMsg{ID: 1, SQL: "select 1", Opts: all, XML: true, TagPlan: []byte("{}")}).Encode())
	f.Add((&QueryMsg{ID: 2, SQL: "select 2", Opts: Opts{DOP: 8}}).Encode())
	f.Add([]byte{})
	bad := (&QueryMsg{ID: 3, SQL: "select 3", Opts: Opts{Options: opt.Options{DisableRules: map[string]bool{"no-such-rule": true}}}}).Encode()
	f.Add(bad)
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeQuery(p)
		if err != nil {
			return
		}
		enc := m.Encode()
		m2, err := DecodeQuery(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if enc2 := m2.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encode differs: %x, then %x", enc, enc2)
		}
	})
}
