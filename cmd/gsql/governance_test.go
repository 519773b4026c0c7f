package main

import (
	"strings"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/internal/sql"
)

func TestShellTimeoutMeta(t *testing.T) {
	db := shellDB(t)
	sh := &shell{db: db}
	var b strings.Builder
	sh.meta(`\timeout`, &b)
	if !strings.Contains(b.String(), "timeout: off") {
		t.Errorf("default timeout display:\n%s", b.String())
	}
	b.Reset()
	sh.meta(`\timeout 500ms`, &b)
	if sh.opts.Timeout != 500*time.Millisecond || !strings.Contains(b.String(), "timeout: 500ms") {
		t.Errorf("set timeout = %v, output:\n%s", sh.opts.Timeout, b.String())
	}
	b.Reset()
	sh.meta(`\timeout`, &b)
	if !strings.Contains(b.String(), "timeout: 500ms") {
		t.Errorf("timeout display after set:\n%s", b.String())
	}
	b.Reset()
	sh.meta(`\timeout off`, &b)
	if sh.opts.Timeout != 0 || !strings.Contains(b.String(), "timeout: off") {
		t.Errorf("clear timeout = %v, output:\n%s", sh.opts.Timeout, b.String())
	}
	b.Reset()
	sh.meta(`\timeout banana`, &b)
	if sh.opts.Timeout != 0 || !strings.Contains(b.String(), "usage:") {
		t.Errorf("bad duration must print usage:\n%s", b.String())
	}
}

func TestShellTimeoutCancelsStatement(t *testing.T) {
	db := shellDB(t)
	sh := &shell{db: db, opts: gapplydb.Options{Timeout: time.Nanosecond}}
	var b strings.Builder
	sh.run("select count(*) from supplier;", &b)
	if !strings.Contains(b.String(), "timed out after") {
		t.Errorf("expired timeout must be reported:\n%s", b.String())
	}
	// The session survives and works once the limit is lifted.
	sh.opts.Timeout = 0
	b.Reset()
	sh.run("select count(*) from supplier;", &b)
	if !strings.Contains(b.String(), "1 rows") {
		t.Errorf("statement after timeout:\n%s", b.String())
	}
}

// TestPrintErrorCaretUTF8: the caret is positioned in rune columns, so a
// multi-byte literal earlier on the line does not skew it.
func TestPrintErrorCaretUTF8(t *testing.T) {
	var b strings.Builder
	stmt := "select '日本' x"
	// Column 13 is the x: 12 runes precede it (but 16 bytes).
	printError(&b, stmt, &sql.ParseError{Msg: "boom", Line: 1, Col: 13})
	caret := "  " + strings.Repeat(" ", 12) + "^"
	if !strings.Contains(b.String(), caret+"\n") {
		t.Errorf("caret misplaced (want %d leading spaces):\n%q", 12, b.String())
	}

	// A column past the line's end clamps to one past the last rune.
	b.Reset()
	printError(&b, stmt, &sql.ParseError{Msg: "boom", Line: 1, Col: 99})
	clamped := "  " + strings.Repeat(" ", 13) + "^"
	if !strings.Contains(b.String(), clamped+"\n") {
		t.Errorf("clamped caret misplaced:\n%q", b.String())
	}
}

// TestShellParseErrorCaretEndToEnd: a statement with a non-ASCII literal
// draws the caret under the offending token, not past it.
func TestShellParseErrorCaretEndToEnd(t *testing.T) {
	db := shellDB(t)
	var b strings.Builder
	runStatement(db, "select s_name\nfrom supplier\nwhere s_name = '日本' !;", &b)
	out := b.String()
	if !strings.Contains(out, "line 3") {
		t.Fatalf("error lacks position:\n%s", out)
	}
	// "where s_name = '日本' " is 20 runes; the ! sits at column 21
	// (byte-based columns would put the caret 4 cells too far right).
	caret := "  " + strings.Repeat(" ", 20) + "^"
	if !strings.Contains(out, caret+"\n") {
		t.Errorf("caret not under the offending token:\n%q", out)
	}
}
