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
	v, mf, err := DecodeHello(EncodeHello())
	if err != nil || v != ProtocolVersion || mf != DefaultMaxFrame {
		t.Fatalf("hello: v=%d maxFrame=%d err=%v", v, mf, err)
	}
	var bad Enc
	bad.U32(0xdeadbeef)
	bad.U32(ProtocolVersion)
	if _, _, err := DecodeHello(bad.B); err == nil {
		t.Fatal("bad magic accepted")
	}
	v, banner, mf, err := DecodeWelcome(EncodeWelcome("gapplyd test"))
	if err != nil || v != ProtocolVersion || banner != "gapplyd test" || mf != DefaultMaxFrame {
		t.Fatalf("welcome: v=%d banner=%q maxFrame=%d err=%v", v, banner, mf, err)
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
