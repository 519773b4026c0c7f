package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/sql"
	"gapplydb/xmlpub"
)

// Outcome is one execution of a corpus query, local or remote, reduced
// to what the harness compares: the rendered output bytes, the error
// taxonomy code, and the engine's work counters.
type Outcome struct {
	// Rendered is the comparable output: RenderRows for rows queries, the
	// published document for XML queries. nil when the query errored.
	Rendered []byte
	// Rows is the row count (rows kind) or document bytes (xml kind).
	Rows int64
	// Code classifies a failure using the wire taxonomy ("" = success).
	Code string
	// Err is the underlying failure when Code is set.
	Err error
	// Stats carries the engine's work counters (spool, plan cache, …).
	Stats gapplydb.ExecStats
	// TraceID identifies the execution's server-side trace (zero when
	// untraced). Remote runs populate it from the End/Error frame echo.
	TraceID gapplydb.TraceID
}

// RenderRows renders a result deterministically: a header line with the
// column names, then one tab-separated line per row in result order.
// NULL renders as \N, strings are quoted (so tabs or newlines in data
// cannot break framing), floats use the shortest round-trip form. Byte
// equality of two renderings is exactly result equality, which makes
// the rendering both the golden format and the differential comparator.
func RenderRows(cols []string, rows [][]any) []byte {
	var b bytes.Buffer
	b.WriteString("# columns: ")
	b.WriteString(strings.Join(cols, "\t"))
	b.WriteByte('\n')
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(renderValue(v))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func renderValue(v any) string {
	switch x := v.(type) {
	case nil:
		return `\N`
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%#v", v)
	}
}

// effectiveDOP resolves the degree one execution runs at: a query with
// a pinned DOP always uses it; otherwise the caller's choice applies.
func (q *Query) effectiveDOP(dop int) int {
	if q.DOP > 0 {
		return q.DOP
	}
	return dop
}

// Options are the settings an execution of q at the given degree runs
// under, embedded or remote alike: the corpus's own DOP, timeout, row
// budget and partitioning.
func (q *Query) Options(dop int) gapplydb.Options {
	o := gapplydb.Options{DOP: q.effectiveDOP(dop), Timeout: q.Timeout(), MaxOutputRows: q.MaxOutputRows}
	_ = o.Set("partition", q.Partition) // checked by Load
	return o
}

// RunLocal executes the query embedded (Database.Query) at the given
// degree of parallelism. Cancel-type queries are not locally runnable —
// their whole point is a wire-level cancel mid-stream.
func RunLocal(ctx context.Context, db *gapplydb.Database, q *Query, dop int) (*Outcome, error) {
	return RunLocalOpts(ctx, db, q, dop)
}

// RunLocalOpts is RunLocal with extra query options applied after the
// corpus's settings (Options) — the differentials use it to plan
// without indexes while keeping the corpus's own DOP/timeout/budget
// semantics intact.
func RunLocalOpts(ctx context.Context, db *gapplydb.Database, q *Query, dop int, extra ...gapplydb.QueryOption) (*Outcome, error) {
	if q.CancelAfterRows > 0 {
		return nil, fmt.Errorf("replay: %s: cancel-after-rows queries only run remotely", q.Name)
	}
	opts := append([]gapplydb.QueryOption{gapplydb.WithOptions(q.Options(dop))}, extra...)
	res, err := db.QueryContext(ctx, q.SQL, opts...)
	if err != nil {
		return &Outcome{Code: localCode(err), Err: err}, nil
	}
	out := &Outcome{Stats: res.Stats}
	if q.Kind == KindXML {
		var doc bytes.Buffer
		if err := xmlpub.TagAll(q.TagPlan, res.Rows, &doc); err != nil {
			return nil, fmt.Errorf("replay: %s: tagging: %w", q.Name, err)
		}
		out.Rendered = doc.Bytes()
		out.Rows = int64(doc.Len())
		return out, nil
	}
	out.Rendered = RenderRows(res.Columns, res.Rows)
	out.Rows = int64(len(res.Rows))
	return out, nil
}

// RunRemote executes the query over the wire against a gapplyd
// connection at the given degree of parallelism, honoring the query's
// timeout/budget options and its cancel-after-rows protocol.
func RunRemote(ctx context.Context, conn *client.Conn, q *Query, dop int) (*Outcome, error) {
	return runRemote(ctx, conn, q, dop)
}

// RunRemoteTraced is RunRemote with a client-issued trace ID: the
// server traces the whole request path under id and echoes it on the
// terminating frame, which lands in Outcome.TraceID — so a conformance
// run can assert the wire round-trip and then pull the full trace from
// the server's /debug/traces.
func RunRemoteTraced(ctx context.Context, conn *client.Conn, q *Query, dop int, id gapplydb.TraceID) (*Outcome, error) {
	return runRemote(ctx, conn, q, dop, gapplydb.WithTraceID(id))
}

func runRemote(ctx context.Context, conn *client.Conn, q *Query, dop int, opts ...client.QueryOption) (*Outcome, error) {
	opts = append(opts, gapplydb.WithOptions(q.Options(dop)))
	if q.Kind == KindXML {
		var doc bytes.Buffer
		st, err := conn.QueryXML(ctx, q.SQL, q.TagPlan, &doc, opts...)
		if err != nil {
			return remoteFailure(err)
		}
		return &Outcome{Rendered: doc.Bytes(), Rows: st.Rows, Stats: st.Exec, TraceID: st.TraceID}, nil
	}

	qctx := ctx
	var cancel context.CancelFunc
	if q.CancelAfterRows > 0 {
		qctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	rows, err := conn.Query(qctx, q.SQL, opts...)
	if err != nil {
		return remoteFailure(err)
	}
	var got [][]any
	var n int64
	for {
		row, ok, err := rows.Next()
		if err != nil {
			rows.Close()
			return remoteFailure(err)
		}
		if !ok {
			break
		}
		n++
		if q.CancelAfterRows > 0 {
			// Reading past the cancel point only drains in-flight frames;
			// don't accumulate them.
			if n == q.CancelAfterRows {
				cancel()
			}
			continue
		}
		got = append(got, row)
	}
	out := &Outcome{Rows: n, Stats: rows.Stats().Exec, TraceID: rows.Stats().TraceID}
	if q.CancelAfterRows == 0 {
		out.Rendered = RenderRows(rows.Columns, got)
	}
	return out, nil
}

// remoteFailure folds a remote error into an Outcome with its taxonomy
// code. Transport-level failures (connection death) are returned as
// hard errors — they are harness failures, not query outcomes.
func remoteFailure(err error) (*Outcome, error) {
	var se *client.ServerError
	if errors.As(err, &se) {
		return &Outcome{Code: se.Code, Err: err, TraceID: se.TraceID}, nil
	}
	return nil, err
}

// localCode maps an embedded-execution error onto the wire taxonomy,
// mirroring the server's classification so local and remote outcomes
// compare directly.
func localCode(err error) string {
	var re *gapplydb.ResourceError
	var pe *sql.ParseError
	switch {
	case errors.Is(err, context.Canceled):
		return client.CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return client.CodeTimeout
	case errors.As(err, &re):
		return client.CodeResource
	case errors.Is(err, gapplydb.ErrDatabaseClosed):
		return client.CodeShutdown
	case errors.As(err, &pe):
		return client.CodeParse
	default:
		return client.CodeInternal
	}
}

// DiffRendered compares two renderings byte-exactly and reports the
// first differing line with context when they diverge.
func DiffRendered(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("outputs differ at line %d:\n  got:  %.120s\n  want: %.120s\n(got %d lines/%d bytes, want %d lines/%d bytes)",
				i+1, g, w, len(gl), len(got), len(wl), len(want))
		}
	}
	return fmt.Errorf("outputs differ (got %d bytes, want %d bytes)", len(got), len(want))
}
