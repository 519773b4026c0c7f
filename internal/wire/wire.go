// Package wire is gapplyd's binary protocol: length-prefixed frames
// carrying a small fixed message set — handshake, query submission,
// row-batch and XML-chunk streams, completion with statistics, errors,
// cancellation, session options and pings.
//
// Framing. Every frame is
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// A reader enforces a maximum payload length and rejects anything
// larger with ErrFrameTooLarge before allocating, so a corrupt or
// malicious peer cannot make the other side buffer an arbitrary amount.
//
// Multiplexing. Every per-query message begins with the query id the
// client assigned, so one connection carries any number of concurrent
// queries: the server interleaves RowBatch/XMLChunk frames of different
// queries and the client demultiplexes on the id. Handshake and session
// messages (Hello/Welcome/Set/OK/Ping/Pong) use the same id mechanism
// where a reply must be matched to its request.
//
// Values. Rows travel as tagged scalars in the exact Go representations
// the embedded API's Result.Rows uses (nil, int64, float64, string,
// bool), so remote results are byte-identical to in-process ones after
// formatting.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/opt"
	"gapplydb/internal/options"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// ProtocolVersion is bumped on any incompatible change; the handshake
// rejects mismatches.
const ProtocolVersion = 1

// Magic opens every Hello so a server can immediately reject a peer
// that is not speaking this protocol ("GAPD").
const Magic = 0x47415044

// DefaultMaxFrame bounds one frame's payload: large enough for any row
// batch the server emits (batches flush far below this), small enough
// that a corrupt length prefix cannot balloon memory.
const DefaultMaxFrame = 4 << 20

// Type identifies a frame's message.
type Type byte

const (
	TypeInvalid   Type = iota
	TypeHello          // client→server: magic, protocol version
	TypeWelcome        // server→client: protocol version, server banner
	TypeQuery          // client→server: id, SQL text, per-query options
	TypeRowHeader      // server→client: id, column names
	TypeRowBatch       // server→client: id, n rows of tagged values
	TypeXMLChunk       // server→client: id, raw document bytes
	TypeEnd            // server→client: id, elapsed, row count, stats
	TypeError          // server→client: id, code, message
	TypeCancel         // client→server: id of the query to cancel
	TypePing           // client→server: id
	TypePong           // server→client: id echoed
	TypeSet            // client→server: id, session option name, value
	TypeOK             // server→client: id echoed (Set accepted)
)

// String names the frame type for diagnostics.
func (t Type) String() string {
	names := [...]string{"invalid", "hello", "welcome", "query", "rowheader",
		"rowbatch", "xmlchunk", "end", "error", "cancel", "ping", "pong", "set", "ok"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// reader's limit; the connection is unrecoverable after it (the stream
// position is past a header whose payload was never read).
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

const headerLen = 5

// WriteFrame writes one frame. The payload may be nil (length 0).
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > math.MaxUint32 {
		return ErrFrameTooLarge
	}
	var hdr [headerLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into a new payload: ReadFrameInto with
// nothing to recycle.
func ReadFrame(r io.Reader, maxPayload int) (Type, []byte, error) {
	return ReadFrameInto(r, maxPayload, nil)
}

// ReadFrameInto reads one frame, rejecting payloads over maxPayload
// bytes (0 means DefaultMaxFrame) before allocating anything for them.
// A payload of n bytes is read into buf[:n] when cap(buf) >= n, else
// into a new slice; an empty payload is nil.
func ReadFrameInto(r io.Reader, maxPayload int, buf []byte) (Type, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFrame
	}
	hdr := buf // not a local array, which would escape through r
	if cap(hdr) < headerLen {
		hdr = make([]byte, headerLen)
	}
	hdr = hdr[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return TypeInvalid, nil, err
	}
	t, n := Type(hdr[0]), binary.BigEndian.Uint32(hdr[1:])
	if n > uint32(maxPayload) {
		return TypeInvalid, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxPayload)
	}
	if n == 0 {
		return t, nil, nil
	}
	payload := buf
	if cap(payload) < int(n) {
		// Capacity rounded up to a size class: room for a later frame.
		payload = append([]byte(nil), make([]byte, n)...)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return TypeInvalid, nil, err
	}
	return t, payload, nil
}

// Enc builds a payload. The zero value is ready to use; methods never
// fail (growth is append-based).
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.B = append(e.B, v) }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// U64 appends a big-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.BigEndian.AppendUint64(e.B, v) }

// I64 appends a big-endian two's-complement int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// ErrShortPayload reports a payload that ended before its declared
// contents — a framing or encoding bug, never a recoverable condition.
var ErrShortPayload = errors.New("wire: truncated payload")

// Dec consumes a payload. The first decode past the end latches
// ErrShortPayload; callers check Err once at the end of a message.
type Dec struct {
	B   []byte
	off int
	err error
}

// Err returns the first decode error.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many payload bytes are left unread (0 after an
// error). Optional trailing message fields check it before decoding, so
// frames from an older peer — which simply end earlier — parse cleanly.
func (d *Dec) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.B) - d.off
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.B) {
		d.err = ErrShortPayload
		return nil
	}
	b := d.B[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.BytesRef()) }

// BytesRef reads a length-prefixed byte slice aliasing the payload.
func (d *Dec) BytesRef() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	return d.take(int(n))
}

// value tags.
const (
	tagNull  = 0
	tagInt   = 1
	tagFloat = 2
	tagStr   = 3
	tagTrue  = 4
	tagFalse = 5
)

// The value encoding is written here and nowhere else: one tag byte,
// then the payload. Value and PutValue only pick among these by kind.

func (e *Enc) null() { e.U8(tagNull) }

func (e *Enc) tagInt(v int64) {
	e.U8(tagInt)
	e.I64(v)
}

func (e *Enc) tagFloat(v float64) {
	e.U8(tagFloat)
	e.F64(v)
}

func (e *Enc) tagStr(v string) {
	e.U8(tagStr)
	e.Str(v)
}

func (e *Enc) tagBool(v bool) {
	if v {
		e.U8(tagTrue)
	} else {
		e.U8(tagFalse)
	}
}

// Value appends one typed cell as a tagged scalar. DATE travels as its
// integer, exactly as the boxed API shows it.
func (e *Enc) Value(v types.Value) {
	switch v.K {
	case types.KindInt, types.KindDate:
		e.tagInt(v.I)
	case types.KindFloat:
		e.tagFloat(v.F)
	case types.KindString:
		e.tagStr(v.S)
	case types.KindBool:
		e.tagBool(v.I != 0)
	default:
		e.null()
	}
}

// PutValue appends one boxed cell as a tagged scalar. Accepted dynamic
// types are exactly those of Result.Rows cells: nil, int64, float64,
// string, bool (int is accepted for convenience and travels as int64).
func PutValue(e *Enc, v any) error {
	switch x := v.(type) {
	case nil:
		e.null()
	case int64:
		e.tagInt(x)
	case int:
		e.tagInt(int64(x))
	case float64:
		e.tagFloat(x)
	case string:
		e.tagStr(x)
	case bool:
		e.tagBool(x)
	default:
		return fmt.Errorf("wire: unsupported value type %T", v)
	}
	return nil
}

// Value reads one tagged scalar.
func (d *Dec) Value() any {
	switch t := d.U8(); t {
	case tagNull:
		return nil
	case tagInt:
		return d.I64()
	case tagFloat:
		return d.F64()
	case tagStr:
		return d.Str()
	case tagTrue:
		return true
	case tagFalse:
		return false
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown value tag %d", t)
		}
		return nil
	}
}

// Opts are the settings a Query frame carries, under the name QueryMsg
// embeds them by: a message's settings are m.Opts, and each reads as
// m.DOP, m.Trace and so on. A zero field means the session's setting
// (and the session's zero, the engine's). Instrument does not travel:
// a profile never leaves the server.
type Opts = options.Options

// QueryMsg is one query submission.
type QueryMsg struct {
	ID  uint64
	SQL string
	Opts
	// XML switches the reply from row batches to a streamed XML
	// document tagged with TagPlan, the JSON-encoded xmlpub.TagPlan.
	XML     bool
	TagPlan []byte
}

// putTraceID appends the optional trailing trace-ID field: a presence
// byte followed by the 16 raw ID bytes. A zero ID appends nothing, so
// frames to/from peers that predate tracing are byte-identical.
func putTraceID(e *Enc, id trace.ID) {
	if id.IsZero() {
		return
	}
	e.U8(1)
	e.B = append(e.B, id[:]...)
}

// traceID reads the optional trailing trace-ID field, returning the
// zero ID when the payload ends first (an older peer).
func (d *Dec) traceID() trace.ID {
	var id trace.ID
	if d.Remaining() == 0 {
		return id
	}
	if d.U8() == 1 {
		copy(id[:], d.take(len(id)))
	}
	return id
}

// The Query frame's layout: the id, the SQL text, the budget and the
// degree, the reply mode, then two optional trailing fields, which a
// decoder reads only when the payload goes on — the trace ID (see
// putTraceID) and the settings block: a presence byte, the partition,
// the forced and the disabled rules, then a flags byte and the sampling
// probability. The block's head is the plan-pin block older peers sent,
// so their frames decode into the same fields. A frame that sets
// neither ends before them, byte-identical to one from a peer that
// predates both.

// flags lists the settings the block's flags byte carries, bit 0 first;
// a frame with any other bit set is malformed.
func flags(o *Opts) [4]*bool {
	return [...]*bool{&o.DisableIndexes, &o.SkipOptimization, &o.NoPlanCache, &o.ForceTrace}
}

// Encode serializes the message as a TypeQuery payload.
func (m *QueryMsg) Encode() []byte {
	var e Enc
	e.U64(m.ID)
	e.Str(m.SQL)
	e.I64(int64(m.Timeout))
	e.I64(m.MaxOutputRows)
	e.I64(m.MaxPartitionBytes)
	e.U32(uint32(m.DOP))
	if m.XML {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Bytes(m.TagPlan)
	var bits byte
	for i, f := range flags(&m.Opts) {
		if *f {
			bits |= 1 << i
		}
	}
	block := bits != 0 || m.Partition != core.PartitionAuto || len(m.ForceRules) > 0 ||
		len(m.DisableRules) > 0 || m.TraceSampling != 0
	if block && m.Trace.IsZero() {
		e.U8(0) // the trace field, held open for the block
	}
	putTraceID(&e, m.Trace)
	if block {
		e.U8(1)
		e.Str(m.Partition.String())
		e.names(m.ForceRules)
		e.names(m.DisableRules)
		e.U8(bits)
		e.F64(m.TraceSampling)
	}
	return e.B
}

// DecodeQuery parses a TypeQuery payload. Settings no Set could have
// made (an unknown rule, a sampling probability out of range, a flag
// bit no setting owns) are a protocol error.
func DecodeQuery(p []byte) (*QueryMsg, error) {
	d := Dec{B: p}
	m := &QueryMsg{ID: d.U64(), SQL: d.Str()}
	m.Timeout = time.Duration(d.I64())
	m.MaxOutputRows = d.I64()
	m.MaxPartitionBytes = d.I64()
	m.DOP = int(int32(d.U32()))
	m.XML = d.U8() == 1
	if b := d.BytesRef(); len(b) > 0 {
		m.TagPlan = append([]byte(nil), b...)
	}
	m.Trace = d.traceID()
	if d.Remaining() == 0 || d.U8() != 1 {
		return m, d.Err()
	}
	if err := m.Set("partition", d.Str()); err != nil {
		return nil, err
	}
	m.ForceRules = d.names()
	m.DisableRules = d.names()
	if d.Remaining() > 0 { // a block that pinned plans ends before the flags
		bits := d.U8()
		fs := flags(&m.Opts)
		for i, f := range fs {
			*f = bits&(1<<i) != 0
		}
		m.TraceSampling = d.F64()
		if bits>>len(fs) != 0 {
			return nil, fmt.Errorf("wire: unknown query flags %#x", bits)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, m.Check()
}

// names appends the names a set holds, sorted, as a counted list.
func (e *Enc) names(set map[string]bool) {
	on := opt.SortedNames(set)
	e.U32(uint32(len(on)))
	for _, n := range on {
		e.Str(n)
	}
}

// names reads a counted list of names as a set (nil when empty). Every
// name takes at least its 4-byte length, so a count the payload cannot
// hold is rejected before anything is sized by it.
func (d *Dec) names() map[string]bool {
	n := d.U32()
	if uint64(n)*4 > uint64(d.Remaining()) {
		if d.err == nil {
			d.err = ErrShortPayload
		}
		return nil
	}
	if n == 0 {
		return nil
	}
	set := make(map[string]bool, n)
	for i := uint32(0); i < n; i++ {
		set[d.Str()] = true
	}
	return set
}

// EncodeHello builds the client's opening frame payload.
func EncodeHello() []byte {
	var e Enc
	e.U32(Magic)
	e.U32(ProtocolVersion)
	return e.B
}

// DecodeHello validates a Hello payload and returns the peer's
// version. Trailing bytes are ignored: older clients append a proposed
// frame limit there, and each side reads with its own limit instead.
func DecodeHello(p []byte) (version uint32, err error) {
	d := Dec{B: p}
	magic, version := d.U32(), d.U32()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if magic != Magic {
		return 0, fmt.Errorf("wire: bad magic %#x", magic)
	}
	return version, nil
}

// EncodeWelcome builds the server's handshake reply.
func EncodeWelcome(banner string) []byte {
	var e Enc
	e.U32(ProtocolVersion)
	e.Str(banner)
	return e.B
}

// DecodeWelcome parses the handshake reply, ignoring trailing bytes
// (older servers confirm a frame limit there).
func DecodeWelcome(p []byte) (version uint32, banner string, err error) {
	d := Dec{B: p}
	version, banner = d.U32(), d.Str()
	return version, banner, d.Err()
}

// RowHeaderMsg announces a query's output columns.
type RowHeaderMsg struct {
	ID      uint64
	Columns []string
}

// Encode serializes the header.
func (m *RowHeaderMsg) Encode() []byte {
	var e Enc
	e.U64(m.ID)
	e.U32(uint32(len(m.Columns)))
	for _, c := range m.Columns {
		e.Str(c)
	}
	return e.B
}

// DecodeRowHeader parses a TypeRowHeader payload.
func DecodeRowHeader(p []byte) (*RowHeaderMsg, error) {
	d := Dec{B: p}
	m := &RowHeaderMsg{ID: d.U64()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Columns = append(m.Columns, d.Str())
	}
	return m, d.Err()
}

// A TypeRowBatch payload is [id u64][ncols u32][nrows u32] followed by
// nrows × ncols tagged values.
const (
	rowBatchCountOff = 12 // offset of nrows
	rowBatchHdrLen   = 16
)

// RowBatch builds TypeRowBatch payloads row by row in one buffer that
// Begin reuses, so a stream of frames costs no allocation once the
// buffer has grown to the largest of them.
type RowBatch struct {
	e     Enc
	ncols int
	rows  int
}

// Begin starts a new, empty batch for query id, discarding the last.
func (b *RowBatch) Begin(id uint64, ncols int) {
	b.e.B = b.e.B[:0]
	b.e.U64(id)
	b.e.U32(uint32(ncols))
	b.e.U32(0) // nrows, set by Payload
	b.ncols, b.rows = ncols, 0
}

// Row appends one typed row.
func (b *RowBatch) Row(r types.Row) error {
	if len(r) != b.ncols {
		return b.widthError(len(r))
	}
	for _, v := range r {
		b.e.Value(v)
	}
	b.rows++
	return nil
}

func (b *RowBatch) widthError(n int) error {
	return fmt.Errorf("wire: row has %d columns, batch declares %d", n, b.ncols)
}

// Rows is the number of rows appended since Begin.
func (b *RowBatch) Rows() int { return b.rows }

// Size is the payload's current length in bytes.
func (b *RowBatch) Size() int { return len(b.e.B) }

// Payload completes the batch and returns its payload, which aliases
// the builder's buffer: it is valid until the next Begin.
func (b *RowBatch) Payload() []byte {
	binary.BigEndian.PutUint32(b.e.B[rowBatchCountOff:], uint32(b.rows))
	return b.e.B
}

// EncodeRowBatch serializes boxed rows (each ncols wide) into a fresh
// TypeRowBatch payload.
func EncodeRowBatch(id uint64, ncols int, rows [][]any) ([]byte, error) {
	var b RowBatch
	b.Begin(id, ncols)
	for _, r := range rows {
		if len(r) != ncols {
			return nil, b.widthError(len(r))
		}
		for _, v := range r {
			if err := PutValue(&b.e, v); err != nil {
				return nil, err
			}
		}
		b.rows++
	}
	return b.Payload(), nil
}

// RowBatchSizeError reports a TypeRowBatch header that declares more
// cells than its payload can hold. Every value occupies at least one
// byte, so such a frame is corrupt or hostile; the decoder rejects it
// before allocating anything sized by the header.
type RowBatchSizeError struct {
	NCols, NRows uint32
	// Remaining is the number of payload bytes after the header.
	Remaining int
}

func (e *RowBatchSizeError) Error() string {
	return fmt.Sprintf("wire: row batch declares %d rows of %d columns in %d payload bytes", e.NRows, e.NCols, e.Remaining)
}

// DecodeRowBatch parses a TypeRowBatch payload. All rows are carved
// from one []any slab (three-index slices, so a row cannot grow into
// its neighbour): two allocations per frame for the containers,
// whatever the row count.
func DecodeRowBatch(p []byte) (id uint64, rows [][]any, err error) {
	d := Dec{B: p}
	id = d.U64()
	ncols := d.U32()
	nrows := d.U32()
	if err := d.Err(); err != nil {
		return id, nil, err
	}
	// A zero-column row occupies no bytes; it is counted as one so that
	// the row count, too, is bounded by the payload.
	if uint64(nrows)*uint64(max(ncols, 1)) > uint64(d.Remaining()) {
		return id, nil, &RowBatchSizeError{NCols: ncols, NRows: nrows, Remaining: d.Remaining()}
	}
	if nrows == 0 {
		return id, nil, nil
	}
	n := int(ncols)
	slab := make([]any, int(nrows)*n)
	rows = make([][]any, nrows)
	for i := range rows {
		row := slab[:n:n]
		slab = slab[n:]
		for j := range row {
			row[j] = d.Value()
		}
		rows[i] = row
	}
	if err := d.Err(); err != nil {
		return id, nil, err
	}
	return id, rows, nil
}

// chunkHdrLen is an XMLChunk payload's prefix: [id u64][length u32].
const chunkHdrLen = 12

// Chunk accumulates document bytes directly behind an XMLChunk
// payload's header, in one buffer that Begin reuses: the bytes a tagger
// writes are framed where they land, with no per-chunk copy.
type Chunk struct{ e Enc }

// Begin starts a new, empty chunk for query id, discarding the last.
func (c *Chunk) Begin(id uint64) {
	c.e.B = c.e.B[:0]
	c.e.U64(id)
	c.e.U32(0) // length, set by Payload
}

// Write appends document bytes; it never fails.
func (c *Chunk) Write(p []byte) (int, error) {
	c.e.B = append(c.e.B, p...)
	return len(p), nil
}

// Len is the number of document bytes written since Begin.
func (c *Chunk) Len() int { return len(c.e.B) - chunkHdrLen }

// Payload completes the chunk and returns its payload, which aliases
// the builder's buffer: it is valid until the next Begin.
func (c *Chunk) Payload() []byte {
	binary.BigEndian.PutUint32(c.e.B[chunkHdrLen-4:], uint32(c.Len()))
	return c.e.B
}

// DecodeChunk parses an id-tagged byte chunk. The document bytes alias
// p and are valid until p is reused (on the client, until the consumer
// gives the frame's buffer back); a caller keeping them must copy them.
func DecodeChunk(p []byte) (uint64, []byte, error) {
	d := Dec{B: p}
	id := d.U64()
	b := d.BytesRef()
	if err := d.Err(); err != nil {
		return 0, nil, err
	}
	return id, b, nil
}

// EndMsg completes a query: total rows, elapsed execution wall time,
// and the executor's statistics as (name, value) pairs — pairs so a
// newer server can add counters without breaking an older client.
type EndMsg struct {
	ID      uint64
	Rows    int64
	Elapsed time.Duration
	Stats   []StatPair
	// Trace echoes the query's trace ID (client-issued or server-minted;
	// zero = the query was not traced). Optional trailing field.
	Trace trace.ID
}

// StatPair is one named counter in an EndMsg.
type StatPair struct {
	Name  string
	Value int64
}

// Encode serializes the completion message.
func (m *EndMsg) Encode() []byte {
	var e Enc
	e.U64(m.ID)
	e.I64(m.Rows)
	e.I64(int64(m.Elapsed))
	e.U32(uint32(len(m.Stats)))
	for _, s := range m.Stats {
		e.Str(s.Name)
		e.I64(s.Value)
	}
	putTraceID(&e, m.Trace)
	return e.B
}

// DecodeEnd parses a TypeEnd payload.
func DecodeEnd(p []byte) (*EndMsg, error) {
	d := Dec{B: p}
	m := &EndMsg{ID: d.U64(), Rows: d.I64(), Elapsed: time.Duration(d.I64())}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Stats = append(m.Stats, StatPair{Name: d.Str(), Value: d.I64()})
	}
	m.Trace = d.traceID()
	return m, d.Err()
}

// Error codes carried by TypeError frames. The client maps Cancelled
// and Timeout back onto context.Canceled / context.DeadlineExceeded so
// remote errors satisfy the same errors.Is checks as embedded ones.
const (
	CodeParse     = "parse"         // statement failed to parse/bind
	CodeResource  = "resource"      // budget exceeded (ResourceError)
	CodeCancelled = "cancelled"     // cancelled by client or teardown
	CodeTimeout   = "timeout"       // deadline exceeded
	CodeBusy      = "busy"          // admission queue full, fast-rejected
	CodeShutdown  = "shutdown"      // server draining, no new queries
	CodeSession   = "session-limit" // per-session in-flight cap reached
	CodeProtocol  = "protocol"      // malformed frame or bad handshake
	CodeInternal  = "internal"      // anything else
)

// ErrorMsg reports a failed query (or Set/handshake violation).
type ErrorMsg struct {
	ID      uint64
	Code    string
	Message string
	// Trace echoes the failed query's trace ID when it was traced, so an
	// error can still be attributed in the flight recorder. Optional
	// trailing field.
	Trace trace.ID
}

// Encode serializes the error.
func (m *ErrorMsg) Encode() []byte {
	var e Enc
	e.U64(m.ID)
	e.Str(m.Code)
	e.Str(m.Message)
	putTraceID(&e, m.Trace)
	return e.B
}

// DecodeError parses a TypeError payload.
func DecodeError(p []byte) (*ErrorMsg, error) {
	d := Dec{B: p}
	m := &ErrorMsg{ID: d.U64(), Code: d.Str(), Message: d.Str()}
	m.Trace = d.traceID()
	return m, d.Err()
}

// EncodeID serializes the single-id payloads (Cancel, Ping, Pong, OK).
func EncodeID(id uint64) []byte {
	var e Enc
	e.U64(id)
	return e.B
}

// DecodeID parses a single-id payload.
func DecodeID(p []byte) (uint64, error) {
	d := Dec{B: p}
	id := d.U64()
	return id, d.Err()
}

// SetMsg sets one session-scoped option.
type SetMsg struct {
	ID    uint64
	Name  string
	Value string
}

// Encode serializes the option update.
func (m *SetMsg) Encode() []byte {
	var e Enc
	e.U64(m.ID)
	e.Str(m.Name)
	e.Str(m.Value)
	return e.B
}

// DecodeSet parses a TypeSet payload.
func DecodeSet(p []byte) (*SetMsg, error) {
	d := Dec{B: p}
	m := &SetMsg{ID: d.U64(), Name: d.Str(), Value: d.Str()}
	return m, d.Err()
}
