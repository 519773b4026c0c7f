// Package replay is the server-scale regression harness: a checked-in
// corpus of publishing queries with golden row/XML outputs and declared
// per-query expectations, plus a conformance driver (Run) that fires the
// corpus at a live gapplyd and asserts the goldens, error taxonomy,
// spool and plan-cache counters at every degree in the manifest's
// matrix. Timing lives elsewhere: the publishing-request benchmark
// (benchmark/) measures, this package only checks.
//
// The corpus lives in a directory:
//
//	corpus/
//	  manifest.json          query list, expectations, dop matrix
//	  sql/<name>.sql         one statement per file
//	  tagplan/<name>.json    xmlpub tag plan for XML-mode queries
//	  golden/<name>.rows     golden rendered rows
//	  golden/<name>.xml      golden published document
//
// Goldens are regenerated with UpdateGoldens, which
// `go test ./replay -run TestCheckedInGoldensFresh -update` runs over
// the checked-in corpus; regeneration is deterministic, so a second pass
// is a no-op — a property the test suite asserts.
package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"gapplydb"
	"gapplydb/xmlpub"
)

// Kinds of corpus queries.
const (
	KindRows = "rows" // result compared as rendered rows
	KindXML  = "xml"  // result compared as the published XML document
)

// Expect declares what one corpus query's execution must look like.
// Absent optional fields are unchecked.
type Expect struct {
	// Golden requires the output to match the checked-in golden file.
	Golden bool `json:"golden"`
	// Error is the wire error code the query must fail with ("" = the
	// query must succeed). Error-expecting queries have no goldens.
	Error string `json:"error,omitempty"`
	// MinRows is a lower bound on the row count (rows kind only).
	MinRows int64 `json:"min_rows,omitempty"`
	// SpoolBuilds pins the invariant-subtree spool's materialization
	// count exactly; SpoolHitsMin bounds its replay count from below.
	SpoolBuilds  *int64 `json:"spool_builds,omitempty"`
	SpoolHitsMin *int64 `json:"spool_hits_min,omitempty"`
	// PlanCacheHitOnRepeat requires the second consecutive execution to
	// be served from the statement plan cache.
	PlanCacheHitOnRepeat bool `json:"plan_cache_hit_on_repeat,omitempty"`
}

// Query is one corpus entry.
type Query struct {
	// Name identifies the query; it is also the file stem, so it must be
	// lowercase [a-z0-9_]+.
	Name string `json:"name"`
	// Kind is "rows" or "xml".
	Kind string `json:"kind"`
	// DOP pins the query to one degree of parallelism; 0 runs it at every
	// degree in the driver's matrix.
	DOP int `json:"dop,omitempty"`
	// TimeoutMS, when set, runs the query under a wall-clock budget —
	// pair with Expect.Error "timeout" for a deterministic kill.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxOutputRows, when set, caps the result under the resource budget
	// — pair with Expect.Error "resource".
	MaxOutputRows int64 `json:"max_output_rows,omitempty"`
	// CancelAfterRows, when set, makes the driver cancel the query after
	// reading that many rows — pair with Expect.Error "cancelled". The
	// statement must produce far more output than the transport can
	// buffer, or the cancel races stream completion.
	CancelAfterRows int64 `json:"cancel_after_rows,omitempty"`
	// Partition pins the GApply partitioning strategy ("hash" or "sort"),
	// in local and remote executions alike (Options): the golden is the
	// output under that strategy.
	Partition string `json:"partition,omitempty"`

	Expect Expect `json:"expect"`

	// SQL and TagPlan are loaded from the corpus files.
	SQL     string          `json:"-"`
	TagPlan *xmlpub.TagPlan `json:"-"`
}

// Workload is the corpus-wide run configuration.
type Workload struct {
	// Dops is the degree-of-parallelism matrix every query runs at
	// (default [1, 8]).
	Dops []int `json:"dops,omitempty"`
}

// Manifest is the corpus description checked in as manifest.json.
type Manifest struct {
	Version int `json:"version"`
	// ScaleFactor is the TPC-H scale the goldens were generated at; the
	// driver verifies the server holds the same data before asserting.
	ScaleFactor float64 `json:"scale_factor"`
	// PartsuppRows is the expected `select count(*) from partsupp` — the
	// cheap guard that server data matches the goldens.
	PartsuppRows int64    `json:"partsupp_rows"`
	Queries      []*Query `json:"queries"`
	Workload     Workload `json:"workload"`
}

// Corpus is a loaded, validated corpus.
type Corpus struct {
	Dir string
	Manifest
}

var nameRE = regexp.MustCompile(`^[a-z0-9_]+$`)

// Load reads and validates a corpus directory: the manifest, every
// query's SQL, and the tag plans of XML queries. Goldens are loaded
// lazily (they may legitimately be absent before the first -update).
func Load(dir string) (*Corpus, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	c := &Corpus{Dir: dir}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c.Manifest); err != nil {
		return nil, fmt.Errorf("replay: manifest.json: %w", err)
	}
	if c.Version != 1 {
		return nil, fmt.Errorf("replay: manifest version %d unsupported (want 1)", c.Version)
	}
	if c.ScaleFactor <= 0 || c.PartsuppRows <= 0 {
		return nil, fmt.Errorf("replay: manifest must declare scale_factor and partsupp_rows")
	}
	if len(c.Queries) == 0 {
		return nil, fmt.Errorf("replay: manifest has no queries")
	}
	seen := map[string]bool{}
	for _, q := range c.Queries {
		if !nameRE.MatchString(q.Name) {
			return nil, fmt.Errorf("replay: bad query name %q (want [a-z0-9_]+)", q.Name)
		}
		if seen[q.Name] {
			return nil, fmt.Errorf("replay: duplicate query name %q", q.Name)
		}
		seen[q.Name] = true
		if q.Kind != KindRows && q.Kind != KindXML {
			return nil, fmt.Errorf("replay: %s: bad kind %q", q.Name, q.Kind)
		}
		if q.Expect.Error != "" && q.Expect.Golden {
			return nil, fmt.Errorf("replay: %s: an error-expecting query cannot also expect a golden", q.Name)
		}
		if err := new(gapplydb.Options).Set("partition", q.Partition); err != nil {
			return nil, fmt.Errorf("replay: %s: %w", q.Name, err)
		}
		sqlBytes, err := os.ReadFile(filepath.Join(dir, "sql", q.Name+".sql"))
		if err != nil {
			return nil, fmt.Errorf("replay: %s: %w", q.Name, err)
		}
		q.SQL = strings.TrimSpace(string(sqlBytes))
		if q.SQL == "" {
			return nil, fmt.Errorf("replay: %s: empty sql file", q.Name)
		}
		if q.Kind == KindXML {
			planBytes, err := os.ReadFile(filepath.Join(dir, "tagplan", q.Name+".json"))
			if err != nil {
				return nil, fmt.Errorf("replay: %s: %w", q.Name, err)
			}
			q.TagPlan = new(xmlpub.TagPlan)
			if err := json.Unmarshal(planBytes, q.TagPlan); err != nil {
				return nil, fmt.Errorf("replay: %s: tag plan: %w", q.Name, err)
			}
		}
	}
	if len(c.Workload.Dops) == 0 {
		c.Workload.Dops = []int{1, 8}
	}
	for _, d := range c.Workload.Dops {
		if d < 1 {
			return nil, fmt.Errorf("replay: workload dop %d out of range", d)
		}
	}
	return c, nil
}

// Timeout returns the query's configured wall-clock budget.
func (q *Query) Timeout() time.Duration { return time.Duration(q.TimeoutMS) * time.Millisecond }

// GoldenPath returns where the query's golden lives under the corpus.
func (c *Corpus) GoldenPath(q *Query) string {
	ext := ".rows"
	if q.Kind == KindXML {
		ext = ".xml"
	}
	return filepath.Join(c.Dir, "golden", q.Name+ext)
}

// Golden reads the query's checked-in golden bytes.
func (c *Corpus) Golden(q *Query) ([]byte, error) {
	b, err := os.ReadFile(c.GoldenPath(q))
	if err != nil {
		return nil, fmt.Errorf("replay: %s: missing golden (regenerate with go test ./replay -run TestCheckedInGoldensFresh -update): %w",
			q.Name, err)
	}
	return b, nil
}
