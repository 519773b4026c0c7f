package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
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
		Opts: QueryOptions{
			Timeout: 250 * time.Millisecond, MaxOutputRows: 10, MaxPartitionBytes: 1 << 20,
			DOP: 8, XML: true, TagPlan: []byte(`{"RootTag":"r"}`),
		},
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
// (partition, forced and disabled rule lists) — and checks that it
// decodes to the same message with the pins ignored.
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
		want := &QueryMsg{ID: 9, SQL: "select * from partsupp", Opts: QueryOptions{
			Timeout: time.Second, MaxOutputRows: 10, MaxPartitionBytes: 1 << 20,
			DOP: 2, XML: true, TagPlan: []byte(`{"root":"r"}`),
		}}
		var e Enc
		e.U64(want.ID)
		e.Str(want.SQL)
		e.I64(int64(want.Opts.Timeout))
		e.I64(want.Opts.MaxOutputRows)
		e.I64(want.Opts.MaxPartitionBytes)
		e.U32(uint32(want.Opts.DOP))
		e.U8(1)
		e.Bytes(want.Opts.TagPlan)
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
		got, err := DecodeQuery(e.B)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query with pins (traced=%v): %+v err=%v, want %+v", traced, got, err, want)
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
