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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb/internal/bind"
	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/metrics"
	"gapplydb/internal/opt"
	"gapplydb/internal/options"
	"gapplydb/internal/rules"
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

	// store is the row storage every execution takes its arena from;
	// Close drops it.
	store *exec.Store
}

// newDatabase wires the pieces every constructor shares.
func newDatabase() *Database {
	db := &Database{
		cat: storage.NewCatalog(), reg: metrics.NewRegistry(), plans: newPlanCache(),
		store:   new(exec.Store),
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
// reopening of the same catalog cannot observe stale plans, and the row
// storage the executions shared is dropped, so none of it keeps the
// database's data reachable; a stream closed later hands its storage to
// the GC. Close is idempotent; concurrent calls all block until teardown
// completes.
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
	db.store.Close()
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

// Options are a query's settings, one struct from the embedded API
// through the network server, its wire protocol, the client, gsql and
// the replay harness: Options.Set parses one from text by name (the
// names a server session's Set takes), and a zero field is unset. The
// With* options below each set fields of it.
type Options = options.Options

// QueryOption tunes a single query's planning and execution. Options
// apply in order; a remote client sends the settings they make
// (OptionsOf).
type QueryOption func(*queryConfig)

// queryConfig is one call's settings and the state the call derives.
type queryConfig struct {
	Options
	planCacheHit bool // set after compile
	// traceBuilder is either supplied via WithTraceBuilder (the network
	// server, which opens the trace before the engine so admission wait
	// is a span) or created by traceSetup (see tracing.go).
	traceBuilder *trace.Builder
}

// WithOptions applies every setting o sets — its non-zero fields — over
// those of the options before it (Options.Overlay).
func WithOptions(o Options) QueryOption {
	return func(c *queryConfig) { c.Overlay(o) }
}

// OptionsOf returns the settings the options make, without the per-call
// state (WithTraceBuilder) that only an embedded call can use.
func OptionsOf(options ...QueryOption) Options {
	if len(options) == 0 {
		return Options{}
	}
	return makeConfig(options).Options
}

// WithTimeout sets the query's wall-clock deadline (Options.Timeout),
// leaving any other limit already set.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.Timeout = d }
}

// ResourceError reports a query killed for exceeding its budget
// (Options.MaxOutputRows or MaxPartitionBytes).
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
	return func(c *queryConfig) { c.Instrument = true }
}

// WithoutPlanCache compiles the statement from scratch, neither reading
// nor populating the statement plan cache. The benchmark harness uses it
// to measure cold compilation; it is also the escape hatch if a cached
// plan is ever suspected stale.
func WithoutPlanCache() QueryOption {
	return func(c *queryConfig) { c.NoPlanCache = true }
}

// WithoutIndexes plans the query as if no secondary indexes existed:
// no index scans, no sort elision, no merge joins, no ordered GApply
// partitioning. Output is byte-identical either way — that invariant is
// what the differential tests assert — so the option exists for them
// and for before/after benchmarking, not for production use.
func WithoutIndexes() QueryOption {
	return func(c *queryConfig) { c.DisableIndexes = true }
}

// WithoutRule disables one optimizer rule (see RuleNames) for the query.
func WithoutRule(name string) QueryOption {
	return func(c *queryConfig) { c.DisableRules = options.WithRule(c.DisableRules, name) }
}

// ForceRule makes a cost-based rule fire regardless of estimated cost.
func ForceRule(name string) QueryOption {
	return func(c *queryConfig) { c.ForceRules = options.WithRule(c.ForceRules, name) }
}

// WithoutOptimizer executes the bound plan as written, skipping every
// logical rewrite (physical strategies are still assigned).
func WithoutOptimizer() QueryOption {
	return func(c *queryConfig) { c.SkipOptimization = true }
}

// WithDOP caps the degree of parallelism of GApply's execution phase:
// how many groups may be evaluated concurrently by the worker pool.
// n = 1 forces the paper's serial execution; n <= 0 restores the
// default, runtime.GOMAXPROCS(0), over a server session's degree too.
// Output is byte-identical at every degree — results stay clustered in
// partition order — so the knob trades only memory (up to ~2×dop
// buffered groups) for speed.
func WithDOP(n int) QueryOption {
	if n <= 0 {
		n = -1 // the default, which a zero field cannot say over a session's degree
	}
	return func(c *queryConfig) { c.DOP = n }
}

// WithPartition selects the GApply partitioning strategy: "hash",
// "sort", or "auto" (cost-based; the default, and what any other value
// selects). "auto" is the unset setting, so over a server session whose
// partition is hash or sort it keeps the session's strategy.
func WithPartition(strategy string) QueryOption {
	return func(c *queryConfig) {
		if c.Set("partition", strategy) != nil {
			c.Partition = core.PartitionAuto
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

	inner *exec.Result // the rows, owned: copied out of the execution's arena
	text  string       // rendered explanation, for EXPLAIN statements
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
	// SpoolBuilds/SpoolHits count GApply's invariant-subtree
	// materializations: those built vs. group reads served by replay.
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
// loaded catalog is only read. Query drains the Stream that
// StreamContext would return, copying the rows out of the execution's
// recycled storage before closing it: a Result's rows stay valid for as
// long as the caller holds it.
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
// A timeout set via options composes with ctx's own deadline.
func (db *Database) QueryContext(ctx context.Context, query string, options ...QueryOption) (*Result, error) {
	s, err := db.start(ctx, query, options)
	if err != nil {
		return nil, err
	}
	return s.result()
}

func makeConfig(options []QueryOption) queryConfig {
	var cfg queryConfig
	cfg.apply(options)
	return cfg
}

// apply applies options, in order, to c.
func (c *queryConfig) apply(options []QueryOption) {
	for _, o := range options {
		o(c)
	}
}

// Plan compiles a statement to its optimized logical plan.
func (db *Database) Plan(query string, options ...QueryOption) (core.Node, error) {
	c, _, err := db.compile(query, makeConfig(options))
	if err != nil {
		return nil, err
	}
	return c.plan, nil
}

// compiled is a statement after parse/bind/optimize: the plan, the
// optimizer's rule trace, and the EXPLAIN mode of the statement prefix.
type compiled struct {
	plan    core.Node
	trace   []opt.RuleApplication
	mode    sql.ExplainMode
	schema  *schema.Schema // the plan's output schema…
	columns []string       // …and its columns' qualified names, never handed out
}

// planCacheKey identifies one compilation: the statement text, the
// canonical options fingerprint, and the catalog version + statistics
// epoch the plan was produced under (so schema changes and RefreshStats
// invalidate implicitly).
func (db *Database) planCacheKey(query string, cfg queryConfig) string {
	var buf [128]byte
	b := strconv.AppendUint(append(buf[:0], 'v'), db.cat.Version(), 10)
	b = strconv.AppendUint(append(b, ".e"...), db.statsEpoch.Load(), 10)
	b = cfg.AppendFingerprint(append(b, '|'))
	var k strings.Builder
	k.Grow(len(b) + 1 + len(query))
	k.Write(b)
	k.WriteByte('|')
	k.WriteString(query)
	return k.String()
}

// compile parses, binds and optimizes a statement, consulting the
// statement plan cache first. The second result reports a cache hit.
// Cached compilations are immutable and shared: executions only read the
// plan tree, so one entry serves concurrent callers.
func (db *Database) compile(query string, cfg queryConfig) (*compiled, bool, error) {
	tb := cfg.traceBuilder // nil for untraced queries; every call below no-ops
	var key string
	if !cfg.NoPlanCache {
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
	plan, ruleTrace := db.opt.OptimizeTraced(bound, cfg.Options.Options)
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
	c := &compiled{plan: plan, trace: ruleTrace, mode: mode, schema: plan.Schema()}
	c.columns = make([]string, c.schema.Len())
	for i, col := range c.schema.Cols {
		c.columns[i] = col.QualifiedName()
	}
	if !cfg.NoPlanCache {
		db.plans.put(key, c)
	}
	return c, false, nil
}

// execContext builds the executor context one configured query runs
// under.
func (db *Database) execContext(ctx context.Context, cfg queryConfig) *exec.Context {
	ectx := exec.NewContext(db.cat, db.store)
	ectx.DOP = cfg.DOP
	ectx.Ctx = ctx
	if cfg.planCacheHit {
		ectx.Counters.PlanCacheHits = 1
	}
	if cfg.Instrument {
		ectx.Prof = exec.NewProfile()
	}
	if cfg.MaxOutputRows > 0 || cfg.MaxPartitionBytes > 0 {
		ectx.Budget = &exec.Budget{MaxOutputRows: cfg.MaxOutputRows, MaxPartitionBytes: cfg.MaxPartitionBytes}
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

// boxRows converts typed rows into the public API's boxed form. All
// rows are carved from one []any slab (three-index slices, so a row
// cannot grow into its neighbour), which makes the row containers one
// allocation per result instead of one per row; the cells themselves
// are boxed by the runtime as usual.
func boxRows(rows []types.Row) [][]any {
	cells := 0
	for _, r := range rows {
		cells += len(r)
	}
	slab := make([]any, cells)
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := slab[:len(r):len(r)]
		slab = slab[len(r):]
		for j, v := range r {
			vals[j] = v.Go()
		}
		out[i] = vals
	}
	return out
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
// WithoutRule and ForceRule, in the order the optimizer applies them.
func RuleNames() []string {
	var names []string
	for _, r := range rules.All() {
		names = append(names, r.Name())
	}
	return names
}
