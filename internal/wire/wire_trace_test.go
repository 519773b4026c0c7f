package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"gapplydb/internal/trace"
)

func testTraceID() trace.ID {
	var id trace.ID
	for i := range id {
		id[i] = byte(i + 1)
	}
	return id
}

func TestQueryMsgTraceRoundTrip(t *testing.T) {
	m := &QueryMsg{ID: 7, SQL: "select 1", Opts: Opts{Trace: testTraceID()}}
	got, err := DecodeQuery(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
	if got.Trace.IsZero() {
		t.Fatal("trace ID lost in round trip")
	}
}

func TestEndAndErrorTraceRoundTrip(t *testing.T) {
	id := testTraceID()
	e := &EndMsg{ID: 3, Rows: 9, Elapsed: time.Millisecond,
		Stats: []StatPair{{"rows_scanned", 5}}, Trace: id}
	ge, err := DecodeEnd(e.Encode())
	if err != nil || !reflect.DeepEqual(ge, e) {
		t.Fatalf("end: %+v err=%v", ge, err)
	}
	em := &ErrorMsg{ID: 3, Code: CodeTimeout, Message: "deadline", Trace: id}
	gem, err := DecodeError(em.Encode())
	if err != nil || !reflect.DeepEqual(gem, em) {
		t.Fatalf("error: %+v err=%v", gem, err)
	}
}

// TestTraceFieldAbsentCompat pins both compatibility directions: a
// zero-trace encode is byte-identical to the pre-tracing format (an old
// server sees exactly the frames an old client sent), and a new decoder
// accepts payloads that end before the optional field (an old client
// against a new server).
func TestTraceFieldAbsentCompat(t *testing.T) {
	// Old-format Query payload, hand-built field by field.
	var e Enc
	e.U64(42)
	e.Str("select 1")
	e.I64(int64(time.Second))
	e.I64(10)
	e.I64(1 << 20)
	e.U32(8)
	e.U8(0)
	e.Bytes(nil)
	oldQuery := e.B

	m := &QueryMsg{ID: 42, SQL: "select 1",
		Opts: Opts{Timeout: time.Second, MaxOutputRows: 10, MaxPartitionBytes: 1 << 20, DOP: 8}}
	if !bytes.Equal(m.Encode(), oldQuery) {
		t.Fatal("zero-trace Query encode differs from pre-tracing format")
	}
	got, err := DecodeQuery(oldQuery)
	if err != nil {
		t.Fatalf("old-format Query rejected: %v", err)
	}
	if !got.Trace.IsZero() {
		t.Fatalf("old-format Query decoded with trace %s", got.Trace)
	}

	// Same for End and Error.
	var ee Enc
	ee.U64(3)
	ee.I64(100)
	ee.I64(int64(time.Second))
	ee.U32(0)
	end := &EndMsg{ID: 3, Rows: 100, Elapsed: time.Second}
	if !bytes.Equal(end.Encode(), ee.B) {
		t.Fatal("zero-trace End encode differs from pre-tracing format")
	}
	ge, err := DecodeEnd(ee.B)
	if err != nil || !ge.Trace.IsZero() {
		t.Fatalf("old-format End: %+v err=%v", ge, err)
	}

	var er Enc
	er.U64(3)
	er.Str(CodeBusy)
	er.Str("queue full")
	errm := &ErrorMsg{ID: 3, Code: CodeBusy, Message: "queue full"}
	if !bytes.Equal(errm.Encode(), er.B) {
		t.Fatal("zero-trace Error encode differs from pre-tracing format")
	}
	gem, err := DecodeError(er.B)
	if err != nil || !gem.Trace.IsZero() {
		t.Fatalf("old-format Error: %+v err=%v", gem, err)
	}
}

func TestTraceFieldTruncationRejected(t *testing.T) {
	m := &QueryMsg{ID: 1, SQL: "q", Opts: Opts{Trace: testTraceID()}}
	full := m.Encode()
	base := len(full) - 17 // presence byte + 16 ID bytes
	for cut := base + 1; cut < len(full); cut++ {
		if _, err := DecodeQuery(full[:cut]); err == nil {
			t.Fatalf("truncated trace field at %d accepted", cut)
		}
	}
	// Presence byte 0: field explicitly absent, no ID bytes follow.
	explicit := append(append([]byte(nil), full[:base]...), 0)
	got, err := DecodeQuery(explicit)
	if err != nil {
		t.Fatalf("presence=0 rejected: %v", err)
	}
	if !got.Trace.IsZero() {
		t.Fatal("presence=0 decoded a trace ID")
	}
}

// FuzzDecodeTraced exercises the trace-carrying decoders with arbitrary
// payloads — they must never panic, and whatever decodes must re-encode
// to something that decodes identically.
func FuzzDecodeTraced(f *testing.F) {
	f.Add((&QueryMsg{ID: 1, SQL: "select 1", Opts: Opts{Trace: testTraceID()}}).Encode())
	f.Add((&EndMsg{ID: 2, Rows: 5, Trace: testTraceID()}).Encode())
	f.Add((&ErrorMsg{ID: 3, Code: CodeInternal, Message: "x", Trace: testTraceID()}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if m, err := DecodeQuery(p); err == nil {
			m2, err2 := DecodeQuery(m.Encode())
			if err2 != nil || m2.Trace != m.Trace || m2.SQL != m.SQL {
				t.Fatalf("Query re-decode mismatch: %+v vs %+v (%v)", m, m2, err2)
			}
		}
		if m, err := DecodeEnd(p); err == nil {
			m2, err2 := DecodeEnd(m.Encode())
			if err2 != nil || m2.Trace != m.Trace || m2.Rows != m.Rows {
				t.Fatalf("End re-decode mismatch: %+v vs %+v (%v)", m, m2, err2)
			}
		}
		if m, err := DecodeError(p); err == nil {
			m2, err2 := DecodeError(m.Encode())
			if err2 != nil || m2.Trace != m.Trace || m2.Code != m.Code {
				t.Fatalf("Error re-decode mismatch: %+v vs %+v (%v)", m, m2, err2)
			}
		}
	})
}
