package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/client"
)

// Every error frame the server writes must also land in a per-code
// counter, so the taxonomy is observable from /metrics without log
// parsing.
func TestPerCodeErrorCounters(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	if _, err := conn.Query(ctx, "definitely not sql"); err == nil {
		t.Fatal("parse error expected")
	}
	if got := srv.reg.Counter("server_errors_" + client.CodeParse).Value(); got != 1 {
		t.Fatalf("server_errors_parse = %d, want 1", got)
	}

	_, err := conn.Query(ctx, "select count(*) from partsupp, part, supplier",
		gapplydb.WithTimeout(time.Millisecond))
	if err == nil {
		t.Fatal("timeout expected")
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
	if got := srv.reg.Counter("server_errors_" + client.CodeTimeout).Value(); got != 1 {
		t.Fatalf("server_errors_timeout = %d, want 1", got)
	}
}
