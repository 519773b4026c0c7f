package client_test

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gapplydb/client"
	"gapplydb/internal/wire"
)

// TestLargeFrameBuffersStayBounded streams one RowBatch far over the
// size the client's free list of frame buffers keeps, then many small
// ones to a consumer that falls behind, so the read loop runs out of
// free buffers again and again. The buffers it makes then are sized by
// the frames the list can keep, not by the large one: the whole stream
// allocates a few times the large frame, not one large buffer per frame
// of the read loop's lead.
func TestLargeFrameBuffersStayBounded(t *testing.T) {
	const large, small = 1 << 20, 2000
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan error, 1)
	go func() { served <- serveFrames(lis, large, small) }()

	conn, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rows, err := conn.Query(context.Background(), "select s from big")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if n == 0 {
			if s := row[0].(string); len(s) != large {
				t.Fatalf("first row is %d bytes, want %d", len(s), large)
			}
			time.Sleep(50 * time.Millisecond) // let the read loop run ahead
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n != small+1 {
		t.Fatalf("%d rows, want %d", n, small+1)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > 8*large {
		t.Errorf("streaming one %d-byte frame and %d small ones allocated %d B, want at most %d", large, small, got, 8*large)
	}
	t.Logf("%d B allocated", got)
}

// serveFrames answers one connection's handshake and its one query with
// a row of a large-byte string, small one-row batches and the end.
func serveFrames(lis net.Listener, large, small int) error {
	nc, err := lis.Accept()
	if err != nil {
		return err
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	if _, _, err := wire.ReadFrame(br, 0); err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, wire.TypeWelcome, wire.EncodeWelcome("frames")); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, p, err := wire.ReadFrame(br, 0)
	if err != nil {
		return err
	}
	q, err := wire.DecodeQuery(p)
	if err != nil {
		return err
	}
	hdr := wire.RowHeaderMsg{ID: q.ID, Columns: []string{"s"}}
	if err := wire.WriteFrame(bw, wire.TypeRowHeader, hdr.Encode()); err != nil {
		return err
	}
	batch := func(s string) error {
		p, err := wire.EncodeRowBatch(q.ID, 1, [][]any{{s}})
		if err != nil {
			return err
		}
		return wire.WriteFrame(bw, wire.TypeRowBatch, p)
	}
	if err := batch(strings.Repeat("x", large)); err != nil {
		return err
	}
	for i := 0; i < small; i++ {
		if err := batch("row"); err != nil {
			return err
		}
	}
	end := wire.EndMsg{ID: q.ID, Rows: int64(small + 1)}
	if err := wire.WriteFrame(bw, wire.TypeEnd, end.Encode()); err != nil {
		return err
	}
	return bw.Flush()
}
