package server

import (
	"net"
	"strings"
	"testing"

	"gapplydb/internal/wire"
)

// rawFrames runs one statement over a hand-driven connection and
// returns the reply's frames, so a test can see the wire shape the
// client library hides.
func rawFrames(t *testing.T, srv *Server, m *wire.QueryMsg) (types []wire.Type, payloads [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypeHello, wire.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.TypeWelcome {
		t.Fatalf("handshake: %v %v", typ, err)
	}
	if err := wire.WriteFrame(conn, wire.TypeQuery, m.Encode()); err != nil {
		t.Fatal(err)
	}
	for {
		typ, p, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		types, payloads = append(types, typ), append(payloads, p)
		if typ == wire.TypeEnd || typ == wire.TypeError {
			return types, payloads
		}
	}
}

// Row frames flush on what the payload really holds: at batchMaxRows
// rows for narrow rows, and for wide ones as soon as the encoded bytes
// reach batchMaxBytes — never a whole batch later. Frames of one query
// share a buffer, so each must still decode to its own rows only.
func TestRowFramesFlushOnEncodedSize(t *testing.T) {
	srv := startServer(t, Config{})
	const from = " from part, partsupp where p_partkey = ps_partkey"
	for _, tc := range []struct {
		name, sql string
		byRows    bool
	}{
		{"narrow", "select p_partkey, p_name" + from, true},
		// Forty names a row: a frame fills by bytes long before 256 rows.
		{"wide", "select p_partkey, " + strings.TrimSuffix(strings.Repeat("p_name, ", 40), ", ") + from, false},
	} {
		local, err := srv.db.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.reg.Counter("server_bytes_streamed").Value()
		types, payloads := rawFrames(t, srv, &wire.QueryMsg{ID: 1, SQL: tc.sql})
		if types[0] != wire.TypeRowHeader || types[len(types)-1] != wire.TypeEnd {
			t.Fatalf("%s: frames %v", tc.name, types)
		}
		total, streamed := 0, 0
		batches := payloads[1 : len(payloads)-1]
		for i, p := range batches {
			if types[1+i] != wire.TypeRowBatch {
				t.Fatalf("%s: frame %d is %v", tc.name, 1+i, types[1+i])
			}
			_, rows, err := wire.DecodeRowBatch(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r[0] != local.Rows[total][0] || r[1] != local.Rows[total][1] {
					t.Fatalf("%s: row %d is %v, want %v", tc.name, total, r[:2], local.Rows[total])
				}
				total++
			}
			streamed += len(p)
			last := i == len(batches)-1
			perRow := len(p) / len(rows)
			switch {
			case len(rows) > batchMaxRows, len(p) >= batchMaxBytes+2*perRow:
				t.Errorf("%s: frame %d holds %d rows in %d bytes", tc.name, i, len(rows), len(p))
			case tc.byRows && !last && len(rows) != batchMaxRows:
				t.Errorf("%s: frame %d flushed at %d rows", tc.name, i, len(rows))
			case !tc.byRows && !last && len(p) < batchMaxBytes:
				t.Errorf("%s: frame %d flushed at %d bytes, %d rows", tc.name, i, len(p), len(rows))
			}
		}
		if total != len(local.Rows) || len(batches) < 2 {
			t.Errorf("%s: %d rows in %d frames, want %d rows in several", tc.name, total, len(batches), len(local.Rows))
		}
		end, err := wire.DecodeEnd(payloads[len(payloads)-1])
		if err != nil || end.Rows != int64(total) {
			t.Errorf("%s: End reports %d rows (err %v), frames carried %d", tc.name, end.Rows, err, total)
		}
		if got := srv.reg.Counter("server_bytes_streamed").Value() - before; got != int64(streamed) {
			t.Errorf("%s: server_bytes_streamed grew by %d, frames carried %d", tc.name, got, streamed)
		}
	}
}
