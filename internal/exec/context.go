// Package exec is the physical execution engine: a Volcano-style
// iterator tree compiled from the logical algebra in internal/core.
// It implements the paper's two-phase GApply (partition, then per-group
// execution with a relation-valued parameter bound to $group), plus the
// traditional operators the per-group query and the outer query need.
package exec

import (
	"context"
	"reflect"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Context carries runtime state shared by an iterator tree: the catalog,
// the arena, the budget and the stack of outer rows pushed by Apply
// operators for correlated inners. Group variables are bound at compile
// time (scope, segment.go), not here.
//
// A Context (and the iterator tree bound to it) belongs to a single
// goroutine. Parallel GApply gives every worker its own fork()ed
// Context and its own per-group executor, then merges the workers'
// Counters back deterministically. The only mutable state workers share
// is synchronized: the Budget's atomic meters and the store's mutex.
type Context struct {
	Catalog *storage.Catalog

	// DOP caps the degree of parallelism of GApply's execution phase:
	// how many groups may be evaluated concurrently. 0 (the default)
	// means runtime.GOMAXPROCS(0); 1 forces serial execution.
	DOP int

	// Ctx carries the query's cancellation signal and deadline. Every
	// blocking operator (sort, partitioning, join builds, aggregation)
	// and every leaf scan polls it at row-batch granularity via tickN;
	// nil means "never cancelled" and costs nothing.
	Ctx context.Context

	// store is where the execution's arena comes from; arena is the
	// storage its rows are carved from (arena.go), attached by BuildBatch
	// and shared by forked worker contexts.
	store *Store
	arena *arena

	// Budget, when non-nil, meters resource consumption (output rows,
	// materialized partition bytes). It is shared — not copied — by
	// forked worker contexts, so charges from parallel GApply workers
	// land on the same meters.
	Budget *Budget

	// ticks counts the rows of work tickN was told of; the context is
	// actually checked once per cancelBatch of them, bounding both the
	// poll cost and the cancellation latency to one row batch.
	ticks uint64

	// outer is the stack of rows pushed by Apply; compiled OuterRefs
	// index it by depth from the top.
	outer []types.Row

	// Counters are execution statistics used by tests and the benchmark
	// harness to verify plan shapes (e.g. "the baseline joins twice").
	Counters Counters

	// Prof, when non-nil, makes BuildBatch wrap every iterator in an
	// instrumented probe recording per-operator rows, loops and wall
	// time — the data EXPLAIN ANALYZE renders. Nil (the default) keeps
	// execution completely uninstrumented.
	Prof *Profile

	// hosted, when set, collects what the program of every GApply the
	// build compiles on this context hosts (Hosted).
	hosted map[*core.GApply][]core.Node
}

// Counters tallies work done during execution. Every field must be an
// int64 tally: Add merges them field-generically (via reflection) so a
// newly added counter can never be silently dropped from the parallel
// merge path.
type Counters struct {
	RowsScanned        int64 // base-table rows produced by scans
	GroupScanRows      int64 // rows produced by group-variable scans
	Groups             int64 // groups formed by GApply partitioning
	InnerExecs         int64 // per-group query executions
	SerialGroupExecs   int64 // groups evaluated on the serial path
	ParallelGroupExecs int64 // groups evaluated by worker-pool workers
	ApplyExecs         int64 // correlated inner executions by Apply
	ApplyCacheHits     int64 // uncorrelated inners served from cache
	JoinProbes         int64 // hash-join probe rows
	SpoolBuilds        int64 // invariant subtrees materialized by GApply
	SpoolHits          int64 // group reads served from a materialization
	PlanCacheHits      int64 // 1 when this execution ran a plan-cache hit
}

// NewContext returns a fresh execution context over a catalog, whose
// executions take their row storage from st.
func NewContext(cat *storage.Catalog, st *Store) *Context {
	return &Context{Catalog: cat, store: st}
}

// fork returns a child context for a GApply worker: the same catalog,
// DOP and arena, a snapshot of the outer stack (so OuterRefs keep
// resolving), and zeroed Counters (plus a private Profile when the
// parent is instrumented) that the spawning GApply merges back in
// partition order.
func (c *Context) fork() *Context {
	child := &Context{Catalog: c.Catalog, DOP: c.DOP, Ctx: c.Ctx, Budget: c.Budget, arena: c.arena}
	child.outer = append(child.outer, c.outer...)
	if c.Prof != nil {
		child.Prof = NewProfile()
	}
	return child
}

// cancelBatch is the row-batch granularity of cancellation polling: a
// power of two, so tickN finds a crossed window boundary with one xor
// and one mask.
const cancelBatch = 256

// tickN advances the tick counter by n rows of work — the engine's
// cancellation point, called once per batch. It polls the context
// whenever the n rows crossed a cancelBatch window boundary, so the
// worst-case cancellation latency is one window of rows however the
// work is batched.
func (c *Context) tickN(n int) error {
	if n <= 0 {
		return nil
	}
	before := c.ticks
	c.ticks += uint64(n)
	if c.Ctx == nil {
		return nil
	}
	if (before^c.ticks)&^uint64(cancelBatch-1) == 0 {
		return nil // same window: no boundary crossed
	}
	return context.Cause(c.Ctx)
}

// checkCancel polls the context immediately, ignoring the batch window.
// Operators call it at phase boundaries (before a partition phase,
// before emitting a buffered group) where promptness matters more than
// amortization.
func (c *Context) checkCancel() error {
	if c.Ctx == nil {
		return nil
	}
	return context.Cause(c.Ctx)
}

// Add merges another tally into c, field by field over the whole struct.
// Parallel GApply calls this from the consuming goroutine only, once per
// finished task, so counter totals are exact and race-free without
// atomics — plan-shape assertions see the same values as under serial
// execution. o is a pointer so that the merge allocates nothing.
func (c *Counters) Add(o *Counters) {
	dv := reflect.ValueOf(c).Elem()
	sv := reflect.ValueOf(o).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() + sv.Field(i).Int())
	}
}

// pushOuter/popOuter keep the outer stack around an Apply's inner.
func (c *Context) pushOuter(r types.Row) {
	c.outer = append(c.outer, r)
}

func (c *Context) popOuter() {
	c.outer = c.outer[:len(c.outer)-1]
}

// outerAt returns the row depth levels below the top of the outer stack.
func (c *Context) outerAt(depth int) types.Row {
	return c.outer[len(c.outer)-1-depth]
}
