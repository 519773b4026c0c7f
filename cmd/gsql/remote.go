package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gapplydb/client"
)

// metaRemote handles the backslash commands that differ when the shell
// is connected to a gapplyd server instead of an embedded database.
// Catalog and metrics introspection are served by the server's HTTP
// listener, not the query protocol.
func (s *shell) metaRemote(cmd string, w io.Writer) {
	switch {
	case cmd == `\dt`, cmd == `\metrics`:
		fmt.Fprintf(w, "%s is unavailable over -connect; use the server's -http endpoint\n", cmd)
	case cmd == `\trace on`, cmd == `\trace off`:
		// Remote tracing toggles server-side head sampling for this
		// session; completed traces live in the server's flight recorder
		// (its -http listener serves them at /debug/traces).
		p := "0"
		if cmd == `\trace on` {
			p = "1"
		}
		if s.set("trace_sampling", p, w) {
			fmt.Fprintln(w, "(the server retains traces at /debug/traces)")
		}
	case cmd == `\trace` || strings.HasPrefix(cmd, `\trace `):
		fmt.Fprintln(w, `usage: \trace on|off  (view traces at the server's /debug/traces)`)
	case strings.HasPrefix(cmd, `\explain `):
		q := strings.TrimSuffix(strings.TrimSpace(cmd[len(`\explain `):]), ";")
		s.runRemote("explain "+q, w)
	default:
		fmt.Fprintf(w, "unknown command %s\n", cmd)
	}
}

// runRemote executes one statement over the wire and prints its result
// in the embedded shell's table format. Ctrl-C cancels just the
// statement: the context watcher sends a wire-level cancel and the
// server unwinds the query through the engine's context machinery.
func (s *shell) runRemote(query string, w io.Writer) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	rows, err := s.remote.Query(ctx, query)
	if err != nil {
		printRemoteError(w, err, start, s.opts.Timeout)
		return
	}
	defer rows.Close()
	var all [][]any
	for {
		row, ok, err := rows.Next()
		if err != nil {
			printRemoteError(w, err, start, s.opts.Timeout)
			return
		}
		if !ok {
			break
		}
		all = append(all, row)
	}
	fmt.Fprint(w, renderTable(rows.Columns, all))
	st := rows.Stats()
	fmt.Fprintf(w, "(%d rows in %v; exec %v)\n",
		len(all), time.Since(start).Round(time.Microsecond), st.Elapsed.Round(time.Microsecond))
	if s.stats {
		printStats(w, st.Exec)
	}
	if !st.TraceID.IsZero() {
		fmt.Fprintf(w, "trace: %s\n", st.TraceID)
	}
}

func printRemoteError(w io.Writer, err error, start time.Time, timeout time.Duration) {
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "cancelled after %v\n", time.Since(start).Round(time.Microsecond))
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(w, "timed out after %v (\\timeout %v)\n", time.Since(start).Round(time.Microsecond), timeout)
	default:
		fmt.Fprintln(w, "error:", err)
		var se *client.ServerError
		if errors.As(err, &se) && (se.Code == client.CodeBusy || se.Code == client.CodeSession) {
			fmt.Fprintln(w, "  (server at capacity; retry, or raise its admission limits)")
		}
	}
}

// renderTable lays out remote rows exactly as the embedded shell does:
// headers, a dashed rule, then " | "-separated left-aligned cells.
// Values render in their wire representations: NULL, base-10 integers,
// shortest-round-trip floats, raw strings, true/false.
func renderTable(cols []string, rows [][]any) string {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for i, row := range rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = renderValue(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[j]-len(v)))
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	for j, width := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", width))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// renderValue matches types.Value.String for every kind the wire can
// carry.
func renderValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%v", x)
	}
}
