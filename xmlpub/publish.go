package xmlpub

import (
	"fmt"
	"io"

	"gapplydb"
)

// Strategy selects the server translation.
type Strategy int

const (
	// GApply pushes the query as one extended-syntax statement; the
	// GApply operator clusters output by construction.
	GApply Strategy = iota
	// SortedOuterUnion pushes the classic one-union-branch-per-section
	// SQL with a trailing ORDER BY (the "sorting and tagging" baseline
	// of the paper's title).
	SortedOuterUnion
)

// String names the strategy.
func (s Strategy) String() string {
	if s == GApply {
		return "gapply"
	}
	return "sorted-outer-union"
}

// SQL returns the statement the strategy sends to the server.
func (q *FLWR) SQL(s Strategy) string {
	if s == GApply {
		return q.GApplySQL()
	}
	return q.SortedOuterUnionSQL()
}

// Publish runs the query against the database with the chosen strategy
// and streams the published XML to w: rows go from the engine's batches
// straight into the tagger, so only one batch is ever held and a write
// reaches w while the query is still executing. A query that fails
// midway therefore leaves a truncated document in w.
//
// The returned Result carries Columns, Elapsed (execution with the
// tagging interleaved), Stats and TraceID; Rows is nil — the rows were
// never materialized.
func Publish(db *gapplydb.Database, q *FLWR, s Strategy, w io.Writer, opts ...gapplydb.QueryOption) (*gapplydb.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	st, err := db.Stream(q.SQL(s), opts...)
	if err != nil {
		return nil, fmt.Errorf("xmlpub: %s strategy failed: %w", s, err)
	}
	defer st.Close()
	tg := NewTagger(q.TagPlan(), w)
	for {
		rows, ok, err := st.NextRows()
		if err != nil {
			return nil, fmt.Errorf("xmlpub: %s strategy failed: %w", s, err)
		}
		if !ok {
			break
		}
		for _, r := range rows {
			if err := tg.TypedRow(r); err != nil {
				return nil, err
			}
		}
	}
	if err := tg.Close(); err != nil {
		return nil, err
	}
	return &gapplydb.Result{
		Columns: st.Columns,
		Elapsed: st.Elapsed(),
		Stats:   st.Stats(),
		TraceID: st.TraceID(),
	}, nil
}
