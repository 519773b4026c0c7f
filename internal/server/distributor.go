package server

import (
	"context"
	"time"

	"gapplydb"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// RowStream is the result stream a session can frame to its client:
// either the engine's own *gapplydb.Stream (wrapped by engineStream)
// or a distributed coordinator's gathered stream. The contract mirrors
// gapplydb.Stream: single consumer, NextRows until ok=false or error,
// Close always (idempotent), Stats/Elapsed valid after exhaustion.
// Rows are typed — the session tags and encodes them without boxing —
// and a returned batch, rows included, is only valid until the next
// NextRows call: the session is done with it by then, so a stream may
// reuse the storage.
type RowStream interface {
	Columns() []string
	NextRows() ([]types.Row, bool, error)
	Close() error
	Stats() gapplydb.ExecStats
	Elapsed() time.Duration
}

// DistOptions carries one query's effective execution options (session
// defaults already folded in) to a Distributor.
type DistOptions struct {
	Timeout           time.Duration
	MaxOutputRows     int64
	MaxPartitionBytes int64
	DOP               int
	// TraceID is the query's trace identity (zero = untraced); a
	// distributor fans it out so the shards' traces join one tree.
	TraceID trace.ID
}

// Distributor intercepts queries for distributed execution. Distribute
// either claims the query (handled=true, streaming its gathered result)
// or declines (handled=false, nil error) to let the session run it on
// the local database — the coordinator's full local replica, so
// declining is always correct, just not scaled out. A non-nil error is
// only returned for failures of a claimed query's setup.
type Distributor interface {
	Distribute(ctx context.Context, query string, opts DistOptions) (RowStream, bool, error)
}

// engineStream adapts *gapplydb.Stream (Columns is a field) to RowStream.
// The engine's rows are immutable, so it hands them out as they are.
type engineStream struct{ *gapplydb.Stream }

func (s engineStream) Columns() []string { return s.Stream.Columns }
