package replay

import (
	"context"
	"fmt"

	"gapplydb"
	"gapplydb/client"
)

// DriverConfig configures one replay run against a live gapplyd.
type DriverConfig struct {
	// Addr is the server's wire-protocol address.
	Addr string
	// Trace runs the conformance pass with a client-issued trace ID per
	// execution and asserts the server echoes it on the terminating
	// frame. Goldens are still compared byte-exactly — tracing must not
	// perturb results.
	Trace bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (cfg *DriverConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// Run replays the corpus against a live server: a data guard, then the
// conformance pass (every query at every matrix degree, twice, with the
// manifest's expectations asserted). The report is returned even on
// assertion failure, so the caller can inspect it; the error is non-nil
// iff any assertion failed or the harness itself broke.
func Run(ctx context.Context, c *Corpus, cfg DriverConfig) (*Report, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("replay: driver needs a server address")
	}
	rep := &Report{}
	conn, err := client.Dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("replay: dial %s: %w", cfg.Addr, err)
	}
	defer conn.Close()
	if err := guardData(ctx, conn, c); err != nil {
		return nil, err
	}
	cfg.logf("data guard ok: partsupp has %d rows (sf %g)", c.PartsuppRows, c.ScaleFactor)

	if err := runConformance(ctx, conn, c, &cfg, rep); err != nil {
		return rep, err
	}
	cfg.logf("conformance: %d runs, %d assertions", len(rep.Conformance), len(rep.Asserts))

	failed := 0
	for _, a := range rep.Asserts {
		if !a.OK {
			failed++
		}
	}
	rep.Passed = failed == 0
	if failed > 0 {
		return rep, fmt.Errorf("replay: %d assertion(s) failed (first: %s)", failed, firstFailure(rep))
	}
	return rep, nil
}

func firstFailure(rep *Report) string {
	for _, a := range rep.Asserts {
		if !a.OK {
			return a.Name + ": " + a.Detail
		}
	}
	return ""
}

// guardData verifies the server holds the data set the goldens were
// generated from before any golden is compared.
func guardData(ctx context.Context, conn *client.Conn, c *Corpus) error {
	rows, err := conn.Query(ctx, dataGuardSQL)
	if err != nil {
		return fmt.Errorf("replay: data guard: %w", err)
	}
	var got [][]any
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return fmt.Errorf("replay: data guard: %w", err)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	return c.CheckData(got)
}

// runConformance executes every corpus query at every matrix degree,
// twice in a row, and asserts the manifest's expectations: golden
// match, error taxonomy code, row-count floor, spool counters, and
// plan-cache hit on the repeat run.
func runConformance(ctx context.Context, conn *client.Conn, c *Corpus, cfg *DriverConfig, rep *Report) error {
	assert := func(name string, ok bool, format string, args ...any) {
		a := Assertion{Name: name, OK: ok}
		if !ok {
			a.Detail = fmt.Sprintf(format, args...)
			cfg.logf("FAIL %s: %s", name, a.Detail)
		}
		rep.Asserts = append(rep.Asserts, a)
	}
	for _, q := range c.Queries {
		for _, dop := range c.Workload.Dops {
			if q.DOP > 0 && dop != c.Workload.Dops[0] {
				continue // pinned-degree queries run once through the matrix
			}
			eff := q.effectiveDOP(dop)
			tag := fmt.Sprintf("%s@dop=%d", q.Name, eff)
			var runs [2]*Outcome
			for i := range runs {
				var out *Outcome
				var err error
				if cfg.Trace {
					id := gapplydb.NewTraceID()
					out, err = RunRemoteTraced(ctx, conn, q, dop, id)
					if err == nil {
						// The round-trip criterion: whatever frame terminates the
						// query — End or Error — must echo the issued ID.
						assert(fmt.Sprintf("%s/run%d/trace_echo", tag, i+1), out.TraceID == id,
							"terminating frame echoed trace %s, want %s", out.TraceID, id)
					}
				} else {
					out, err = RunRemote(ctx, conn, q, dop)
				}
				if err != nil {
					return fmt.Errorf("replay: %s run %d: %w", tag, i+1, err)
				}
				runs[i] = out
				cr := ConformanceRun{
					Query: q.Name, DOP: eff, Run: i + 1, Code: out.Code, Rows: out.Rows,
					SpoolBuilds: out.Stats.SpoolBuilds, SpoolHits: out.Stats.SpoolHits,
					PlanCacheHit: out.Stats.PlanCacheHits > 0,
				}
				if !out.TraceID.IsZero() {
					cr.TraceID = out.TraceID.String()
				}
				rep.Conformance = append(rep.Conformance, cr)
			}
			for i, out := range runs {
				rtag := fmt.Sprintf("%s/run%d", tag, i+1)
				if q.Expect.Error != "" {
					assert(rtag+"/error", out.Code == q.Expect.Error,
						"error code = %q (%v), want %q", out.Code, out.Err, q.Expect.Error)
					continue
				}
				if !assertOK(assert, rtag+"/success", out.Code == "",
					"failed with %s: %v", out.Code, out.Err) {
					continue
				}
				if q.Expect.Golden {
					want, err := c.Golden(q)
					if err != nil {
						return err
					}
					diff := DiffRendered(out.Rendered, want)
					assert(rtag+"/golden", diff == nil, "%v", diff)
				}
				if q.Expect.MinRows > 0 {
					assert(rtag+"/min_rows", out.Rows >= q.Expect.MinRows,
						"rows = %d, want >= %d", out.Rows, q.Expect.MinRows)
				}
				if q.Expect.SpoolBuilds != nil {
					assert(rtag+"/spool_builds", out.Stats.SpoolBuilds == *q.Expect.SpoolBuilds,
						"spool builds = %d, want %d", out.Stats.SpoolBuilds, *q.Expect.SpoolBuilds)
				}
				if q.Expect.SpoolHitsMin != nil {
					assert(rtag+"/spool_hits", out.Stats.SpoolHits >= *q.Expect.SpoolHitsMin,
						"spool hits = %d, want >= %d", out.Stats.SpoolHits, *q.Expect.SpoolHitsMin)
				}
			}
			if q.Expect.PlanCacheHitOnRepeat && runs[1].Code == "" {
				assert(tag+"/plan_cache_repeat", runs[1].Stats.PlanCacheHits > 0,
					"repeat run missed the plan cache")
			}
		}
	}
	return nil
}

// assertOK is assert + a usable boolean for gating dependent checks.
func assertOK(assert func(string, bool, string, ...any), name string, ok bool, format string, args ...any) bool {
	assert(name, ok, format, args...)
	return ok
}
