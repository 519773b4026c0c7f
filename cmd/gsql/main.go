// Command gsql is an interactive SQL shell for the engine, supporting
// the paper's extended syntax:
//
//	select gapply(<per-group query>) [as (<columns>)]
//	from ... where ... group by <cols> : <variable>
//
// Prefix a statement with EXPLAIN to see the optimized plan, its
// per-node estimates, the plan hash and the optimizer's rule trace;
// EXPLAIN ANALYZE additionally executes the statement and annotates
// every operator with actual rows, loop counts and wall time.
//
// Meta commands: \dt lists tables, \explain <query> explains a
// one-line query, \metrics dumps the session's metrics, \set <name>
// <value> changes a setting every later statement runs under (the names
// gapplydb.Options.Set parses: timeout, dop, partition, disable_rules,
// no_indexes, …), \timeout <dur> is \set timeout <dur> (\timeout off
// clears it; bare \timeout shows it), \trace last|slow|<id> inspects
// the flight recorder (the last trace, the slowest retained traces, or
// one full trace by ID), \q quits. Ctrl-C while a statement runs
// cancels just that statement.
//
// Usage:
//
//	gsql [-sf 0.01]          # starts with TPC-H loaded at the scale factor
//	gsql -sf 0               # starts with an empty catalog
//	gsql -stats              # print executor statistics after each statement
//	gsql -slowlog 100ms      # print EXPLAIN ANALYZE for statements slower than
//	                         # this; every statement is traced, so slowlog lines
//	                         # carry a trace ID and plan hash and the slowest
//	                         # statements stay inspectable via \trace slow
//	gsql -connect host:7744  # run statements against a gapplyd server
//	                         # instead of an embedded database; \set and
//	                         # \timeout set the server session's settings
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"
	"unicode/utf8"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/sql"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to preload (0 = empty database)")
	stats := flag.Bool("stats", false, "print executor statistics after each statement")
	slowlog := flag.Duration("slowlog", 0, "print EXPLAIN ANALYZE for statements slower than this (0 = off)")
	connect := flag.String("connect", "", "connect to a gapplyd server at host:port instead of embedding a database")
	flag.Parse()

	var sh *shell
	if *connect != "" {
		conn, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsql:", err)
			os.Exit(1)
		}
		defer conn.Close()
		sh = &shell{remote: conn, stats: *stats}
		fmt.Printf("gsql — connected to %s (%s). \\q quits; end statements with ';'.\n", *connect, conn.Banner())
	} else {
		var db *gapplydb.Database
		if *sf > 0 {
			var err error
			fmt.Printf("loading TPC-H at scale factor %g...\n", *sf)
			db, err = gapplydb.OpenTPCH(*sf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gsql:", err)
				os.Exit(1)
			}
		} else {
			db = gapplydb.Open()
		}
		sh = &shell{db: db, stats: *stats, slowlog: *slowlog}
		fmt.Println(`gsql — GApply SQL shell. \dt lists tables, \metrics dumps metrics, \q quits; end statements with ';'.`)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "gsql> "
	for {
		fmt.Print(prompt)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (strings.HasPrefix(trimmed, `\`) || trimmed == "quit" || trimmed == "exit" || trimmed == "") {
			if !sh.meta(trimmed, os.Stdout) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "  ... "
			continue
		}
		stmt := buf.String()
		buf.Reset()
		prompt = "gsql> "
		sh.run(stmt, os.Stdout)
	}
}

// shell holds the session state the statement loop needs. Exactly one
// of db (embedded) and remote (gapplyd connection) is set.
type shell struct {
	db      *gapplydb.Database
	remote  *client.Conn
	stats   bool
	slowlog time.Duration
	opts    gapplydb.Options // the settings \set made; connected, the session's too
}

// meta handles a backslash command (or bare quit/exit/blank line);
// it returns false when the shell should terminate.
func (s *shell) meta(cmd string, w io.Writer) bool {
	switch {
	case cmd == `\q` || cmd == "quit" || cmd == "exit":
		return false
	case cmd == "":
	case cmd == `\timeout`:
		if s.opts.Timeout == 0 {
			fmt.Fprintln(w, "timeout: off")
		} else {
			fmt.Fprintf(w, "timeout: %v\n", s.opts.Timeout)
		}
	case strings.HasPrefix(cmd, `\timeout `):
		s.set("timeout", strings.TrimSpace(cmd[len(`\timeout `):]), w)
	case strings.HasPrefix(cmd, `\set `):
		fields := strings.Fields(cmd[len(`\set `):])
		if len(fields) != 2 {
			fmt.Fprintln(w, `usage: \set <name> <value>`)
			break
		}
		s.set(fields[0], fields[1], w)
	case s.remote != nil:
		s.metaRemote(cmd, w)
	case cmd == `\dt`:
		for _, t := range s.db.Tables() {
			fmt.Fprintln(w, " ", t)
		}
	case cmd == `\indexes`:
		ixs := s.db.Indexes()
		if len(ixs) == 0 {
			fmt.Fprintln(w, "no indexes")
			break
		}
		for _, ix := range ixs {
			fmt.Fprintf(w, "  %s on %s (%s)\n", ix.Name, ix.Table, strings.Join(ix.Columns, ", "))
		}
	case cmd == `\metrics`:
		fmt.Fprint(w, s.db.Metrics().String())
	case strings.HasPrefix(cmd, `\explain `):
		q := strings.TrimSuffix(strings.TrimSpace(cmd[len(`\explain `):]), ";")
		e, err := s.db.ExplainPlan(q, gapplydb.WithOptions(s.opts))
		if err != nil {
			printError(w, q, err)
			return true
		}
		fmt.Fprint(w, e.String())
	case cmd == `\trace` || strings.HasPrefix(cmd, `\trace `):
		s.metaTrace(strings.TrimSpace(strings.TrimPrefix(cmd, `\trace`)), w)
	default:
		fmt.Fprintf(w, "unknown command %s\n", cmd)
	}
	return true
}

// set applies one setting to the shell's options, which every embedded
// statement runs under, and — connected — to the server session, which
// parses it with the same parser. It reports whether the setting took.
func (s *shell) set(name, value string, w io.Writer) bool {
	o := s.opts
	err := o.Set(name, value)
	if err == nil && s.remote != nil {
		err = s.remote.Set(name, value)
	}
	if err != nil {
		fmt.Fprintf(w, "error: %v (usage: \\set <name> <value>)\n", err)
		return false
	}
	s.opts = o
	fmt.Fprintf(w, "%s: %s\n", name, value)
	return true
}

// metaTrace serves \trace against the embedded database's flight
// recorder: "last" prints the most recent trace's span tree, "slow"
// lists the slowest retained traces, and a 32-hex-digit ID prints that
// trace in full.
func (s *shell) metaTrace(arg string, w io.Writer) {
	switch {
	case arg == "last":
		t := s.db.Traces().Last()
		if t == nil {
			fmt.Fprintln(w, "no traces recorded (trace a statement with -slowlog, WithTracing, or sampling)")
			return
		}
		fmt.Fprint(w, t.String())
	case arg == "slow":
		slow := s.db.Traces().Slowest()
		if len(slow) == 0 {
			fmt.Fprintln(w, "no traces recorded")
			return
		}
		for _, sum := range slow {
			fmt.Fprintf(w, "%8.3fms  %-6s %s  %s\n", sum.DurMS, sum.Status, sum.ID, sum.Query)
		}
	case arg == "":
		fmt.Fprintln(w, `usage: \trace last|slow|<id>`)
	default:
		id, err := gapplydb.ParseTraceID(arg)
		if err != nil {
			fmt.Fprintf(w, "bad trace id %q: %v\n", arg, err)
			return
		}
		t := s.db.Traces().Get(id)
		if t == nil {
			fmt.Fprintln(w, "trace not retained (evicted or never recorded)")
			return
		}
		fmt.Fprint(w, t.String())
	}
}

// run executes one terminated statement and prints its result. The
// statement runs under a context that Ctrl-C cancels (the interrupt is
// scoped to the statement: the shell survives and prompts again) and
// that carries the session's \timeout, when one is set.
func (s *shell) run(stmt string, w io.Writer) {
	query := strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	if s.remote != nil {
		s.runRemote(query, w)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := []gapplydb.QueryOption{gapplydb.WithOptions(s.opts)}
	if s.slowlog > 0 {
		// Trace every statement so a slow one's timeline is already in
		// the flight recorder when the threshold trips — the slowlog line
		// names the trace, and \trace slow keeps the worst offenders.
		opts = append(opts, gapplydb.WithTracing())
	}
	start := time.Now()
	res, err := s.db.QueryContext(ctx, query, opts...)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(w, "cancelled after %v\n", time.Since(start).Round(time.Microsecond))
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(w, "timed out after %v (\\timeout %v)\n", time.Since(start).Round(time.Microsecond), s.opts.Timeout)
		default:
			printError(w, query, err)
		}
		return
	}
	fmt.Fprint(w, res.String())
	fmt.Fprintf(w, "(%d rows in %v; exec %v)\n",
		len(res.Rows), time.Since(start).Round(time.Microsecond), res.Elapsed.Round(time.Microsecond))
	if s.stats {
		printStats(w, res.Stats)
	}
	if s.slowlog > 0 && res.Elapsed >= s.slowlog {
		e, err := s.db.ExplainAnalyze(query, gapplydb.WithOptions(s.opts))
		if err != nil {
			fmt.Fprintln(w, "slowlog: explain analyze failed:", err)
			return
		}
		planHash := "?"
		if t := s.db.Traces().Get(res.TraceID); t != nil && t.PlanHash != "" {
			planHash = t.PlanHash
		}
		fmt.Fprintf(w, "-- slow statement (%v >= %v) trace=%s plan=%s, explain analyze:\n%s",
			res.Elapsed.Round(time.Microsecond), s.slowlog, res.TraceID, planHash, e.String())
	}
}

// printStats prints the executor's counters, as -stats shows them after
// every statement.
func printStats(w io.Writer, st gapplydb.ExecStats) {
	fmt.Fprintf(w, "stats: scanned=%d groups=%d inner=%d serial=%d parallel=%d apply=%d cachehits=%d probes=%d spoolbuilds=%d spoolhits=%d plancache=%d\n",
		st.RowsScanned, st.Groups, st.InnerExecs, st.SerialGroupExecs,
		st.ParallelGroupExecs, st.ApplyExecs, st.ApplyCacheHits, st.JoinProbes,
		st.SpoolBuilds, st.SpoolHits, st.PlanCacheHits)
}

// runStatement keeps the original one-shot entry point (used by tests):
// a default shell with stats and slowlog off.
func runStatement(db *gapplydb.Database, stmt string, w io.Writer) {
	(&shell{db: db}).run(stmt, w)
}

// printError reports a failed statement; parse errors get the offending
// source line with a caret under the error position. ParseError columns
// count runes, so the caret is positioned in display columns — a
// multi-byte UTF-8 literal earlier on the line does not skew it.
func printError(w io.Writer, stmt string, err error) {
	fmt.Fprintln(w, "error:", err)
	var pe *sql.ParseError
	if !errors.As(err, &pe) {
		return
	}
	lines := strings.Split(stmt, "\n")
	if pe.Line < 1 || pe.Line > len(lines) {
		return
	}
	line := lines[pe.Line-1]
	fmt.Fprintf(w, "  %s\n", line)
	col := pe.Col
	if max := utf8.RuneCountInString(line) + 1; col > max {
		col = max
	}
	fmt.Fprintf(w, "  %s^\n", strings.Repeat(" ", col-1))
}
