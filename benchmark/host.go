package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/server"
	"gapplydb/xmlpub"
)

// host is the system under test in one process: the loaded database,
// a server on a loopback TCP listener, the client connections, and the
// reference output of every request the workload can issue.
type host struct {
	db     *gapplydb.Database
	srv    *server.Server
	lis    net.Listener
	served chan error
	conns  []*client.Conn
	keys   int // supplier keys are 1..keys
	refs   map[refKey]*reference
	closed bool
}

type refKey struct {
	class string
	key   int
}

// reference is what a correct response looks like.
type reference struct {
	rows  int
	bytes int
	sum   [sha256.Size]byte
	bad   bool // disagrees with the checked-in digest: every request of the class fails
}

// setup opens the database, serves it, dials the workload's
// connections and computes the reference outputs. It is the work
// setup_s times.
func setup(w *workload, sf float64) (h *host, err error) {
	if w.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%s needs %d connections but the machine has %d processors", w.name, w.conns, runtime.NumCPU())
	}
	db, err := gapplydb.OpenTPCH(sf)
	if err != nil {
		return nil, fmt.Errorf("open TPC-H at sf %g: %w", sf, err)
	}
	h = &host{db: db, served: make(chan error, 1), refs: map[refKey]*reference{}}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	// Admission is pinned to what a 2-processor gapplyd defaults to, so
	// the open loop's queueing does not change with the machine.
	h.srv = server.New(db, server.Config{MaxConcurrent: 2, MaxQueued: 4, Banner: "benchmark"})
	h.lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return h, fmt.Errorf("listen: %w", err)
	}
	go func() { h.served <- h.srv.Serve(h.lis) }()
	for i := 0; i < w.conns; i++ {
		c, err := client.Dial(h.lis.Addr().String())
		if err != nil {
			return h, fmt.Errorf("dial: %w", err)
		}
		h.conns = append(h.conns, c)
	}
	res, err := db.Query("select count(*) from supplier")
	if err != nil {
		return h, fmt.Errorf("count suppliers: %w", err)
	}
	h.keys = int(res.Rows[0][0].(int64))
	for _, c := range w.classes {
		lo, hi := 0, 0
		if c.keyed {
			lo, hi = 1, h.keys
		}
		for key := lo; key <= hi; key++ {
			ref, err := h.reference(c, key)
			if err != nil {
				return h, fmt.Errorf("reference for %s key %d: %w", c.name, key, err)
			}
			h.refs[refKey{c.name, key}] = ref
		}
	}
	return h, nil
}

// reference runs one request in process, without the server or the
// wire, and digests its output.
func (h *host) reference(c *class, key int) (*reference, error) {
	sqlText, plan := c.compile(key)
	res, err := h.db.Query(sqlText)
	if err != nil {
		return nil, err
	}
	hash := sha256.New()
	n := &countingWriter{w: hash}
	if plan != nil {
		err = xmlpub.TagAll(plan, res.Rows, n)
	} else {
		var buf []byte
		for _, row := range res.Rows {
			buf = renderRow(buf[:0], row)
			n.Write(buf)
		}
	}
	if err != nil {
		return nil, err
	}
	ref := &reference{rows: len(res.Rows), bytes: n.n}
	hash.Sum(ref.sum[:0])
	return ref, nil
}

// close stops the server and waits for it. A second call does nothing.
func (h *host) close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	var errs []error
	for _, c := range h.conns {
		// The connection was only read from; a close error changes nothing.
		_ = c.Close()
	}
	if h.lis != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, h.srv.Shutdown(ctx))
		cancel()
		// Shutdown closes the listener only once Serve has taken it;
		// closing it here too ends a Serve that had not started yet.
		_ = h.lis.Close()
		errs = append(errs, <-h.served)
	}
	errs = append(errs, h.db.Close())
	return errors.Join(errs...)
}

// countingWriter counts what is written through it; w may be nil.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

// renderRow is the text form a rows-mode response is checked in.
func renderRow(buf []byte, row []any) []byte {
	for i, v := range row {
		if i > 0 {
			buf = append(buf, '|')
		}
		switch x := v.(type) {
		case nil:
			buf = append(buf, `\N`...)
		case string:
			buf = append(buf, x...)
		case int64:
			buf = strconv.AppendInt(buf, x, 10)
		case float64:
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		case bool:
			buf = strconv.AppendBool(buf, x)
		default:
			buf = fmt.Append(buf, x)
		}
	}
	return append(buf, '\n')
}

// Digests: the checked-in outputs of the unkeyed classes at defaultSF,
// per translation strategy. Keyed classes and other scale factors are
// checked against the in-process references only.

//go:embed testdata/digests.json
var digestsJSON []byte

const digestsPath = "testdata/digests.json"

type digestFile struct {
	SF      float64           `json:"sf"`
	Classes map[string]digest `json:"classes"` // "<strategy>/<class>"
}

type digest struct {
	Rows   int    `json:"rows"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func digestName(c *class) string { return c.strategy.String() + "/" + c.name }

// checkDigests compares the host's references with the checked-in
// digests, marks the ones that differ as bad and returns their names.
func (h *host) checkDigests(w *workload, sf float64) ([]string, error) {
	var file digestFile
	if err := json.Unmarshal(digestsJSON, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	if file.SF != sf {
		return nil, nil
	}
	var bad []string
	for _, c := range w.classes {
		if c.keyed {
			continue
		}
		ref := h.refs[refKey{c.name, 0}]
		want, ok := file.Classes[digestName(c)]
		if !ok || want.Rows != ref.rows || want.Bytes != ref.bytes || want.SHA256 != hex.EncodeToString(ref.sum[:]) {
			ref.bad = true
			bad = append(bad, digestName(c))
		}
	}
	return bad, nil
}

// updateDigests recomputes digests.json from in-process runs of every
// workload's unkeyed classes.
func updateDigests() error {
	file := digestFile{SF: defaultSF, Classes: map[string]digest{}}
	db, err := gapplydb.OpenTPCH(defaultSF)
	if err != nil {
		return err
	}
	defer db.Close()
	h := &host{db: db}
	for _, w := range workloads {
		for _, c := range w.classes {
			if c.keyed {
				continue
			}
			ref, err := h.reference(c, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", digestName(c), err)
			}
			file.Classes[digestName(c)] = digest{Rows: ref.rows, Bytes: ref.bytes, SHA256: hex.EncodeToString(ref.sum[:])}
		}
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(out, '\n'), 0o644)
}
