// Package gapplydb is an in-memory relational engine with first-class
// support for groupwise processing: the GApply operator of Chaudhuri,
// Kaushik and Naughton, "On Relational Support for XML Publishing:
// Beyond Sorting and Tagging" (SIGMOD 2003).
//
// The engine accepts a SQL subset extended with the paper's syntax:
//
//	select gapply(<per-group query>) [as (<column list>)]
//	from <relations>
//	where <conditions>
//	group by <grouping columns> : <group variable>
//
// The per-group query runs once per group with the relation-valued
// variable bound to the group's rows; results are returned clustered by
// the grouping columns, ready for a constant-space XML tagger.
//
// A rule-based optimizer implements the paper's §4 transformations
// (selection/projection before GApply, GApply→groupby, group selection,
// invariant grouping) plus classic pushdown and subquery decorrelation;
// individual rules can be disabled or forced per query, which is how the
// benchmark harness regenerates the paper's Table 1.
package gapplydb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb/internal/bind"
	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/metrics"
	"gapplydb/internal/opt"
	"gapplydb/internal/schema"
	"gapplydb/internal/sql"
	"gapplydb/internal/stats"
	"gapplydb/internal/storage"
	"gapplydb/internal/tpch"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// Database is an in-memory database instance. It is safe for concurrent
// readers once loading is complete; loading and querying must not race.
type Database struct {
	cat   *storage.Catalog
	st    *stats.Stats
	opt   *opt.Optimizer
	reg   *metrics.Registry
	plans *planCache
	// traces is the flight recorder completed traced queries land in;
	// sampler drives WithTraceSampling decisions (see tracing.go).
	traces  *trace.Recorder
	sampler *trace.Sampler
	// statsEpoch counts RefreshStats calls: plans compiled under old
	// statistics may no longer be the ones the optimizer would pick, so
	// the plan-cache key includes the epoch.
	statsEpoch atomic.Uint64

	// Lifecycle: closeMu guards the closed flag against racing query
	// admissions; closeCtx is the root every execution's context is
	// derived from, so Close can cancel all in-flight work; inflight
	// counts admitted executions (queries and open streams) that Close
	// must drain.
	closeMu     sync.RWMutex
	closed      bool
	closeCtx    context.Context
	closeCancel context.CancelFunc
	inflight    sync.WaitGroup
}

// newDatabase wires the pieces every constructor shares.
func newDatabase() *Database {
	db := &Database{
		cat: storage.NewCatalog(), reg: metrics.NewRegistry(), plans: newPlanCache(),
		traces:  trace.NewRecorder(defaultTraceRecent, defaultTraceSlowest),
		sampler: trace.NewSampler(time.Now().UnixNano()),
	}
	db.closeCtx, db.closeCancel = context.WithCancel(context.Background())
	return db
}

// Open creates an empty database.
func Open() *Database {
	db := newDatabase()
	db.RefreshStats()
	return db
}

// OpenTPCH creates a database loaded with the TPC-H-style data set at
// the given scale factor (1.0 ≈ the paper's schema at full row counts;
// 0.01 is comfortable for a laptop). Every primary- and foreign-key
// column gets an ordered secondary index, built eagerly so the first
// query does not pay the sort.
func OpenTPCH(scaleFactor float64) (*Database, error) {
	db := newDatabase()
	if err := tpch.Load(db.cat, scaleFactor); err != nil {
		return nil, err
	}
	if err := db.buildTPCHIndexes(); err != nil {
		return nil, err
	}
	db.RefreshStats()
	return db, nil
}

// OpenTPCHShard creates a database holding shard `shard` of a
// totalShards-way hash-partitioned TPC-H load: fact tables (partsupp,
// lineitem, orders) restricted to the rows tpch.ShardOf assigns to the
// shard, dimension tables replicated in full. The shard sees the exact
// global generation order restricted to its rows, which is the invariant
// the distributed coordinator's order-preserving gather relies on.
// OpenTPCHShard(sf, 0, 1) is identical to OpenTPCH(sf).
func OpenTPCHShard(scaleFactor float64, shard, totalShards int) (*Database, error) {
	db := newDatabase()
	if err := tpch.LoadShard(db.cat, scaleFactor, shard, totalShards); err != nil {
		return nil, err
	}
	if err := db.buildTPCHIndexes(); err != nil {
		return nil, err
	}
	db.RefreshStats()
	return db, nil
}

// buildTPCHIndexes creates the single-column ordered indexes on the
// TPC-H key and foreign-key columns — the access paths the planner's
// order pass uses to serve ORDER BY, merge joins and sort-partitioned
// GApply — and forces each run to build now rather than on first use.
func (db *Database) buildTPCHIndexes() error {
	keyCols := map[string][]string{
		"region":   {"r_regionkey"},
		"nation":   {"n_nationkey", "n_regionkey"},
		"supplier": {"s_suppkey", "s_nationkey"},
		"part":     {"p_partkey"},
		"partsupp": {"ps_partkey", "ps_suppkey"},
		"customer": {"c_custkey", "c_nationkey"},
		"orders":   {"o_orderkey", "o_custkey"},
		"lineitem": {"l_orderkey", "l_partkey", "l_suppkey"},
	}
	for table, cols := range keyCols {
		tab, err := db.cat.Lookup(table)
		if err != nil {
			return err
		}
		for _, col := range cols {
			ix, err := db.cat.CreateIndex("idx_"+table+"_"+col, table, col)
			if err != nil {
				return err
			}
			ix.Run(tab)
		}
	}
	return nil
}

// CreateIndex registers an ordered secondary index over the named
// columns of a table. All index orderings are ascending with ties in
// insertion order; the planner uses indexes to serve ORDER BY without
// sorting, to run merge joins, and to feed sort-partitioned GApply, and
// a single-column index also serves selective lookups: a filter on its
// key reads only the matching window (in heap order), and a merge join
// probes it in place — never changing a single output byte relative to
// the index-free plan.
// Creating an index invalidates cached plans implicitly (the cache key
// carries the catalog version).
func (db *Database) CreateIndex(name, table string, columns ...string) error {
	_, err := db.cat.CreateIndex(name, table, columns...)
	return err
}

// DropIndex removes an index by name.
func (db *Database) DropIndex(name string) error { return db.cat.DropIndex(name) }

// IndexInfo describes one ordered secondary index.
type IndexInfo struct {
	Name    string
	Table   string
	Columns []string
}

// Indexes lists the database's secondary indexes sorted by name.
func (db *Database) Indexes() []IndexInfo {
	ixs := db.cat.Indexes()
	out := make([]IndexInfo, len(ixs))
	for i, ix := range ixs {
		out[i] = IndexInfo{Name: ix.Name, Table: ix.Table, Columns: append([]string(nil), ix.Cols...)}
	}
	return out
}

// ErrDatabaseClosed is returned by every query entry point after Close.
var ErrDatabaseClosed = errors.New("gapplydb: database is closed")

// Close shuts the database down: new queries are rejected with
// ErrDatabaseClosed, in-flight queries and open streams are cancelled
// through their execution contexts, and Close blocks until all of them
// have unwound. The statement plan cache is invalidated so a later
// reopening of the same catalog cannot observe stale plans. Close is
// idempotent; concurrent calls all block until teardown completes.
//
// The network server calls this as the last step of its shutdown
// sequence; embedded callers get deterministic teardown for free.
func (db *Database) Close() error {
	db.closeMu.Lock()
	already := db.closed
	db.closed = true
	db.closeMu.Unlock()
	if !already {
		db.closeCancel()
	}
	db.inflight.Wait()
	db.plans.clear()
	return nil
}

// acquire admits one execution against the database lifecycle: it fails
// once Close has begun, and otherwise registers the execution so Close
// drains it. The returned release is idempotent.
func (db *Database) acquire() (release func(), err error) {
	db.closeMu.RLock()
	if db.closed {
		db.closeMu.RUnlock()
		return nil, ErrDatabaseClosed
	}
	db.inflight.Add(1)
	db.closeMu.RUnlock()
	var once sync.Once
	return func() { once.Do(db.inflight.Done) }, nil
}

// lifecycleContext derives the execution context every query runs
// under: the caller's ctx, additionally cancelled when the database
// closes. The returned stop releases the linkage and must always be
// called.
func (db *Database) lifecycleContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(db.closeCtx, cancel)
	return ctx, func() { unlink(); cancel() }
}

// InvalidatePlanCache drops every cached statement plan. Schema changes
// and RefreshStats already invalidate implicitly (the cache key includes
// the catalog version and the statistics epoch); this hook is for
// callers that mutate data in ways the engine cannot see and want
// freshly costed plans without a statistics refresh.
func (db *Database) InvalidatePlanCache() { db.plans.clear() }

// Metrics returns a point-in-time snapshot of the database's lifetime
// metrics: query and error counts, optimize/execute latency histograms,
// groups formed, the serial/parallel group-execution split, and the
// apply-cache hit tallies. Safe to call concurrently with queries.
func (db *Database) Metrics() metrics.Snapshot { return db.reg.Snapshot() }

// PublishMetrics exposes the database's metrics registry as an expvar
// variable under the given name (JSON, recomputed per read). Publishing
// the same name twice is a no-op, so it is safe to call at every startup.
func (db *Database) PublishMetrics(name string) { metrics.Publish(name, db.reg) }

// Column describes one column of a user-created table. Type is one of
// "int", "float", "string", "bool", "date".
type Column struct {
	Name string
	Type string
}

// ForeignKey declares a foreign key for a user-created table; the
// optimizer's invariant-grouping rule relies on these declarations.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateTable registers a new table.
func (db *Database) CreateTable(name string, cols []Column, primaryKey []string, fks ...ForeignKey) error {
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		k, err := kindOf(c.Type)
		if err != nil {
			return err
		}
		sc[i] = schema.Column{Name: c.Name, Type: k}
	}
	def := &schema.TableDef{Name: name, Schema: schema.New(sc...), PrimaryKey: primaryKey}
	for _, fk := range fks {
		def.ForeignKeys = append(def.ForeignKeys, schema.ForeignKey{
			Cols: fk.Columns, RefTable: fk.RefTable, RefCols: fk.RefColumns,
		})
	}
	_, err := db.cat.Create(def)
	return err
}

func kindOf(t string) (types.Kind, error) {
	switch strings.ToLower(t) {
	case "int", "integer", "bigint":
		return types.KindInt, nil
	case "float", "double", "decimal":
		return types.KindFloat, nil
	case "string", "varchar", "text":
		return types.KindString, nil
	case "bool", "boolean":
		return types.KindBool, nil
	case "date":
		return types.KindDate, nil
	default:
		return types.KindNull, fmt.Errorf("gapplydb: unknown column type %q", t)
	}
}

// Insert appends rows to a table. Accepted Go values per cell: nil,
// int, int64, float64, string, bool. A row whose indexed key sorts below
// the table's last row ends that index's claim that the heap is in key
// order, and retires the cached plans built on it.
func (db *Database) Insert(table string, rows ...[]any) error {
	tab, err := db.cat.Lookup(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		row := make(types.Row, len(r))
		for i, v := range r {
			tv, err := toValue(v)
			if err != nil {
				return err
			}
			row[i] = tv
		}
		if err := db.cat.Insert(tab, row); err != nil {
			return err
		}
	}
	return nil
}

func toValue(v any) (types.Value, error) {
	tv, ok := types.FromGo(v)
	if !ok {
		return types.Null, fmt.Errorf("gapplydb: unsupported value type %T", v)
	}
	return tv, nil
}

// Tables lists the table names.
func (db *Database) Tables() []string { return db.cat.Names() }

// RefreshStats recollects optimizer statistics; call it after bulk
// loading so cardinality estimates reflect the data. Cached statement
// plans compiled under the previous statistics are invalidated (the
// cache key carries the statistics epoch).
func (db *Database) RefreshStats() {
	db.st = stats.Collect(db.cat)
	db.opt = opt.New(db.cat, db.st)
	db.statsEpoch.Add(1)
}

// QueryOption tunes a single query's planning and execution.
type QueryOption func(*queryConfig)

type queryConfig struct {
	optOpts      opt.Options
	dop          int
	instrument   bool
	budget       Budget
	noPlanCache  bool
	noSpool      bool
	planCacheHit bool // set after compile; not a user option

	// Tracing (see tracing.go). traceBuilder is either supplied via
	// WithTraceBuilder (the network server, which opens the trace before
	// the engine so admission wait is a span) or created by traceSetup.
	traceID      trace.ID
	forceTrace   bool
	traceProb    float64
	traceBuilder *trace.Builder
}

// Budget caps one query's resource consumption. Every limit defaults to
// unlimited (zero); exceeding a set limit kills the query with a
// *ResourceError, and exceeding the timeout kills it with
// context.DeadlineExceeded. A server fronting untrusted queries should
// set all three.
type Budget struct {
	// MaxOutputRows caps how many rows the query may return.
	MaxOutputRows int64
	// MaxPartitionBytes caps the bytes GApply may materialize into
	// per-group partitions — the engine's dominant memory consumer.
	MaxPartitionBytes int64
	// Timeout is the query's wall-clock deadline, enforced through the
	// execution context (it composes with any deadline already on the
	// caller's context: the earlier one wins).
	Timeout time.Duration
}

// WithBudget applies a resource budget to the query.
func WithBudget(b Budget) QueryOption {
	return func(c *queryConfig) { c.budget = b }
}

// WithTimeout is shorthand for WithBudget(Budget{Timeout: d}) composed
// with any other limits already set: it caps only the wall clock.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.budget.Timeout = d }
}

// ResourceError reports a query killed for exceeding its Budget.
// Inspect it with errors.As:
//
//	var re *gapplydb.ResourceError
//	if errors.As(err, &re) { log.Printf("killed: %s at %s", re.Limit, re.Operator) }
type ResourceError struct {
	// Limit names the exceeded dimension: "max-output-rows" or
	// "max-partition-bytes".
	Limit string
	// Operator is the plan operator that blew the budget, in the compact
	// shape the optimizer trace uses.
	Operator string
	// Max is the configured limit; Used the observed consumption.
	Max, Used int64
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("gapplydb: resource budget exceeded: %s = %d (limit %d) at %s",
		e.Limit, e.Used, e.Max, e.Operator)
}

// WithInstrumentation turns on per-operator profiling for the query:
// every plan node records its actual row count, loop count (Opens) and
// inclusive wall time, which ExplainAnalyze renders and Result exposes.
// Without this option (and outside EXPLAIN ANALYZE) execution carries no
// probes at all, so the default path pays nothing for the feature.
func WithInstrumentation() QueryOption {
	return func(c *queryConfig) { c.instrument = true }
}

// WithoutPlanCache compiles the statement from scratch, neither reading
// nor populating the statement plan cache. The benchmark harness uses it
// to measure cold compilation; it is also the escape hatch if a cached
// plan is ever suspected stale.
func WithoutPlanCache() QueryOption {
	return func(c *queryConfig) { c.noPlanCache = true }
}

// WithoutSpooling disables GApply's invariant-subtree spooling for the
// query: every per-group execution re-runs the whole inner tree, as the
// engine did before the spool layer. Differential tests and the spool
// benchmark use it; there is no reason to set it in production.
func WithoutSpooling() QueryOption {
	return func(c *queryConfig) { c.noSpool = true }
}

// WithoutIndexes plans the query as if no secondary indexes existed:
// no index scans, no sort elision, no merge joins, no ordered GApply
// partitioning. Output is byte-identical either way — that invariant is
// what the differential tests assert — so the option exists for them
// and for before/after benchmarking, not for production use.
func WithoutIndexes() QueryOption {
	return func(c *queryConfig) { c.optOpts.DisableIndexes = true }
}

// WithoutRule disables one optimizer rule (see RuleNames) for the query.
func WithoutRule(name string) QueryOption {
	return func(c *queryConfig) {
		if c.optOpts.DisableRules == nil {
			c.optOpts.DisableRules = map[string]bool{}
		}
		c.optOpts.DisableRules[name] = true
	}
}

// ForceRule makes a cost-based rule fire regardless of estimated cost.
func ForceRule(name string) QueryOption {
	return func(c *queryConfig) {
		if c.optOpts.ForceRules == nil {
			c.optOpts.ForceRules = map[string]bool{}
		}
		c.optOpts.ForceRules[name] = true
	}
}

// WithoutOptimizer executes the bound plan as written, skipping every
// logical rewrite (physical strategies are still assigned).
func WithoutOptimizer() QueryOption {
	return func(c *queryConfig) { c.optOpts.SkipOptimization = true }
}

// WithDOP caps the degree of parallelism of GApply's execution phase:
// how many groups may be evaluated concurrently by the worker pool.
// n = 1 forces the paper's serial execution; n <= 0 restores the
// default, runtime.GOMAXPROCS(0). Output is byte-identical at every
// degree — results stay clustered in partition order — so the knob
// trades only memory (up to ~2×dop buffered groups) for speed.
func WithDOP(n int) QueryOption {
	return func(c *queryConfig) { c.dop = n }
}

// WithPartition selects the GApply partitioning strategy: "hash",
// "sort", or "auto" (cost-based; the default).
func WithPartition(strategy string) QueryOption {
	return func(c *queryConfig) {
		switch strings.ToLower(strategy) {
		case "hash":
			c.optOpts.Partition = core.PartitionHash
		case "sort":
			c.optOpts.Partition = core.PartitionSort
		default:
			c.optOpts.Partition = core.PartitionAuto
		}
	}
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Elapsed is the execution wall time (excluding parse/bind/optimize).
	Elapsed time.Duration
	// Stats tallies work done by the executor.
	Stats ExecStats
	// Trace records every optimizer rule application considered for this
	// query, in order (nil when the optimizer was skipped).
	Trace []RuleApplication
	// TraceID identifies this query's end-to-end trace in the flight
	// recorder (Database.Traces); zero when the query was not traced.
	TraceID TraceID

	inner *exec.Result
	text  string // rendered explanation, for EXPLAIN statements
	prof  *exec.Profile
}

// ExecStats mirrors the executor's work counters.
type ExecStats struct {
	RowsScanned        int64
	Groups             int64
	InnerExecs         int64
	SerialGroupExecs   int64
	ParallelGroupExecs int64
	ApplyExecs         int64
	ApplyCacheHits     int64
	JoinProbes         int64
	// SpoolBuilds/SpoolHits count GApply's invariant-subtree spool
	// activity: materializations performed vs. re-Opens served by replay.
	SpoolBuilds int64
	SpoolHits   int64
	// PlanCacheHits is 1 when this statement's plan came from the
	// statement plan cache, 0 when it was compiled from scratch.
	PlanCacheHits int64
}

// String renders the result as an aligned table (or, for an EXPLAIN
// statement, the rendered plan report).
func (r *Result) String() string {
	if r.inner == nil {
		return r.text
	}
	return r.inner.String()
}

// Query parses, binds, optimizes and executes a statement. It is safe
// for concurrent callers: every execution gets its own context, and the
// loaded catalog is only read.
//
// A statement prefixed with EXPLAIN [ANALYZE] is routed to the
// corresponding explain path: the result has a single "QUERY PLAN"
// column whose rows are the report's lines (ANALYZE executes the query
// to completion but likewise returns the report, not the query's rows).
func (db *Database) Query(query string, options ...QueryOption) (*Result, error) {
	return db.QueryContext(context.Background(), query, options...)
}

// QueryContext is Query under a caller-supplied context: cancelling ctx
// (or passing its deadline) stops the statement — partitioning, sorts,
// joins, aggregation and parallel GApply workers included — within one
// row batch, returning context.Canceled or context.DeadlineExceeded.
// Any Budget timeout set via options composes with ctx's own deadline.
func (db *Database) QueryContext(ctx context.Context, query string, options ...QueryOption) (*Result, error) {
	release, err := db.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	cfg := makeConfig(options)
	tb := db.traceSetup(&cfg, query)
	c, hit, err := db.compile(query, cfg)
	if err != nil {
		db.finishTrace(tb, err)
		return nil, err
	}
	cfg.planCacheHit = hit
	switch c.mode {
	case sql.ExplainAnalyze:
		e, err := db.explainCompiled(ctx, c, cfg, true)
		if err != nil {
			return nil, err
		}
		return e.planResult(), nil
	case sql.ExplainPlan:
		e, err := db.explainCompiled(ctx, c, cfg, false)
		if err != nil {
			db.finishTrace(tb, err)
			return nil, err
		}
		db.finishTrace(tb, nil)
		return e.planResult(), nil
	}
	return db.execute(ctx, c, cfg)
}

func makeConfig(options []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range options {
		o(&cfg)
	}
	return cfg
}

// Plan compiles a statement to its optimized logical plan.
func (db *Database) Plan(query string, options ...QueryOption) (core.Node, error) {
	c, _, err := db.compile(query, makeConfig(options))
	if err != nil {
		return nil, err
	}
	return c.plan, nil
}

// PlanTrace compiles a statement and returns the optimized plan together
// with the optimizer's full rule trace and whether the statement carries
// an EXPLAIN prefix. The distributed coordinator uses the trace to pin
// the cost-based decisions it needs every shard to reproduce.
func (db *Database) PlanTrace(query string, options ...QueryOption) (core.Node, []RuleApplication, bool, error) {
	c, _, err := db.compile(query, makeConfig(options))
	if err != nil {
		return nil, nil, false, err
	}
	return c.plan, toTrace(c.trace), c.mode != sql.ExplainNone, nil
}

// compiled is a statement after parse/bind/optimize: the plan, the
// optimizer's rule trace, and the EXPLAIN mode of the statement prefix.
type compiled struct {
	plan  core.Node
	trace []opt.RuleApplication
	mode  sql.ExplainMode
}

// planCacheKey identifies one compilation: the statement text, the
// canonical options fingerprint, and the catalog version + statistics
// epoch the plan was produced under (so schema changes and RefreshStats
// invalidate implicitly).
func (db *Database) planCacheKey(query string, cfg queryConfig) string {
	return fmt.Sprintf("v%d.e%d|%s|%s", db.cat.Version(), db.statsEpoch.Load(), cfg.optOpts.Fingerprint(), query)
}

// compile parses, binds and optimizes a statement, consulting the
// statement plan cache first. The second result reports a cache hit.
// Cached compilations are immutable and shared: executions only read the
// plan tree, so one entry serves concurrent callers.
func (db *Database) compile(query string, cfg queryConfig) (*compiled, bool, error) {
	tb := cfg.traceBuilder // nil for untraced queries; every call below no-ops
	var key string
	if !cfg.noPlanCache {
		key = db.planCacheKey(query, cfg)
		lookup := tb.StartSpan("plan-cache", 0)
		c, ok := db.plans.get(key)
		tb.EndSpan(lookup)
		if ok {
			tb.Annotate(lookup, trace.Attr{Key: "verdict", Value: "hit"})
			if tb != nil {
				// Guarded: the argument would render the whole plan on every
				// cache hit, traced or not.
				tb.SetPlanHash(core.PlanHash(c.plan))
			}
			db.reg.Counter("plan_cache_hits").Inc()
			return c, true, nil
		}
		tb.Annotate(lookup, trace.Attr{Key: "verdict", Value: "miss"})
		db.reg.Counter("plan_cache_misses").Inc()
	}
	start := time.Now()
	parseSpan := tb.StartSpan("parse", 0)
	stmt, mode, err := sql.Parse(query)
	tb.EndSpan(parseSpan)
	if err != nil {
		db.reg.Counter("query_errors").Inc()
		return nil, false, err
	}
	bindSpan := tb.StartSpan("bind", 0)
	bound, err := bind.New(db.cat).Bind(stmt)
	tb.EndSpan(bindSpan)
	if err != nil {
		db.reg.Counter("query_errors").Inc()
		return nil, false, err
	}
	optSpan := tb.StartSpan("optimize", 0)
	plan, ruleTrace := db.opt.OptimizeTraced(bound, cfg.optOpts)
	tb.EndSpan(optSpan)
	if tb != nil {
		accepted := 0
		for _, a := range ruleTrace {
			if a.Accepted {
				accepted++
				tb.Annotate(optSpan, trace.Attr{Key: "rule", Value: a.Rule})
			}
		}
		tb.Annotate(optSpan,
			trace.Attr{Key: "rules_accepted", Value: fmt.Sprint(accepted)},
			trace.Attr{Key: "rules_considered", Value: fmt.Sprint(len(ruleTrace))})
		tb.SetPlanHash(core.PlanHash(plan))
	}
	db.reg.Histogram("optimize_latency").Observe(time.Since(start))
	c := &compiled{plan: plan, trace: ruleTrace, mode: mode}
	if !cfg.noPlanCache {
		db.plans.put(key, c)
	}
	return c, false, nil
}

// execute runs an optimized plan under the caller's context and budget.
func (db *Database) execute(ctx context.Context, c *compiled, cfg queryConfig) (*Result, error) {
	ctx, stop := db.lifecycleContext(ctx)
	defer stop()
	if cfg.budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.budget.Timeout)
		defer cancel()
	}
	ectx := db.execContext(ctx, cfg)
	tb := cfg.traceBuilder
	execSpan := tb.StartSpan("execute", 0)
	start := time.Now()
	res, err := exec.Run(c.plan, ectx)
	elapsed := time.Since(start)
	tb.EndSpan(execSpan)
	db.reg.Counter("queries").Inc()
	db.reg.Histogram("execute_latency").Observe(elapsed)
	if err != nil {
		err = db.classifyExecError(err)
		attachOperatorSpans(tb, execSpan, c.plan, ectx.Prof)
		db.finishTrace(tb, err)
		return nil, err
	}
	db.recordExecMetrics(ectx.Counters)
	attachOperatorSpans(tb, execSpan, c.plan, ectx.Prof)
	db.finishTrace(tb, nil)

	out := &Result{
		Columns: make([]string, res.Schema.Len()),
		Rows:    boxRows(nil, res.Rows),
		Elapsed: elapsed,
		Stats:   statsOf(ectx.Counters),
		Trace:   toTrace(c.trace),
		TraceID: tb.ID(),
		inner:   res,
		prof:    ectx.Prof,
	}
	for i, c := range res.Schema.Cols {
		out.Columns[i] = c.QualifiedName()
	}
	return out, nil
}

// execContext builds the executor context one configured query runs
// under (shared by the materializing and streaming paths).
func (db *Database) execContext(ctx context.Context, cfg queryConfig) *exec.Context {
	ectx := exec.NewContext(db.cat)
	ectx.DOP = cfg.dop
	ectx.Ctx = ctx
	ectx.NoSpool = cfg.noSpool
	if cfg.planCacheHit {
		ectx.Counters.PlanCacheHits = 1
	}
	if cfg.instrument {
		ectx.Prof = exec.NewProfile()
	}
	if cfg.budget.MaxOutputRows > 0 || cfg.budget.MaxPartitionBytes > 0 {
		ectx.Budget = &exec.Budget{
			MaxOutputRows:     cfg.budget.MaxOutputRows,
			MaxPartitionBytes: cfg.budget.MaxPartitionBytes,
		}
	}
	return ectx
}

// statsOf mirrors the executor's counters into the public ExecStats.
func statsOf(c exec.Counters) ExecStats {
	return ExecStats{
		RowsScanned:        c.RowsScanned,
		Groups:             c.Groups,
		InnerExecs:         c.InnerExecs,
		SerialGroupExecs:   c.SerialGroupExecs,
		ParallelGroupExecs: c.ParallelGroupExecs,
		ApplyExecs:         c.ApplyExecs,
		ApplyCacheHits:     c.ApplyCacheHits,
		JoinProbes:         c.JoinProbes,
		SpoolBuilds:        c.SpoolBuilds,
		SpoolHits:          c.SpoolHits,
		PlanCacheHits:      c.PlanCacheHits,
	}
}

// classifyExecError folds a failed execution into the metrics taxonomy
// — cancelled, timed out, budget-killed, or a plain error — and rewraps
// the internal resource error as the public *ResourceError so callers
// outside the module can errors.As it.
func (db *Database) classifyExecError(err error) error {
	db.reg.Counter("query_errors").Inc()
	var re *exec.ResourceError
	switch {
	case errors.Is(err, context.Canceled):
		db.reg.Counter("queries_cancelled").Inc()
	case errors.Is(err, context.DeadlineExceeded):
		db.reg.Counter("queries_timed_out").Inc()
	case errors.As(err, &re):
		db.reg.Counter("queries_budget_killed").Inc()
		return &ResourceError{Limit: re.Limit, Operator: re.Operator, Max: re.Max, Used: re.Used}
	}
	return err
}

// boxRow converts one typed row into the public API's boxed form.
func boxRow(r types.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		out[i] = v.Go()
	}
	return out
}

// boxRows is boxRow over a whole batch or result. All rows are carved
// from one []any slab (three-index slices, so a row cannot grow into its
// neighbour), which makes the row containers one allocation per call
// instead of one per row; the cells themselves are boxed by the runtime
// as usual. dst's backing array is reused when it is large enough.
func boxRows(dst [][]any, rows []types.Row) [][]any {
	cells := 0
	for _, r := range rows {
		cells += len(r)
	}
	slab := make([]any, cells)
	if cap(dst) < len(rows) {
		dst = make([][]any, len(rows))
	}
	dst = dst[:len(rows)]
	for i, r := range rows {
		vals := slab[:len(r):len(r)]
		slab = slab[len(r):]
		for j, v := range r {
			vals[j] = v.Go()
		}
		dst[i] = vals
	}
	return dst
}

// Explain returns a textual report: the optimized plan tree and the
// optimizer's cardinality/cost estimate.
func (db *Database) Explain(query string, options ...QueryOption) (string, error) {
	plan, err := db.Plan(query, options...)
	if err != nil {
		return "", err
	}
	est := db.opt.Estimate(plan)
	var b strings.Builder
	b.WriteString(core.Format(plan))
	fmt.Fprintf(&b, "estimated rows: %.0f  estimated cost: %.0f\n", est.Rows, est.Cost)
	return b.String(), nil
}

// RuleNames returns the optimizer's rule identifiers, usable with
// WithoutRule and ForceRule.
func RuleNames() []string {
	return []string{
		"push-down-selections",
		"decorrelate-scalar-agg",
		"push-select-into-gapply",
		"push-project-into-gapply",
		"selection-before-gapply",
		"projection-before-gapply",
		"gapply-to-groupby",
		"group-selection-exists",
		"group-selection-aggregate",
		"invariant-grouping",
	}
}
