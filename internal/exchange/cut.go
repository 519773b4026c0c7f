package exchange

import (
	"fmt"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Strategy is how (whether) a plan's root can be executed across shards
// and reassembled into the exact single-node stream.
type Strategy int

const (
	// StrategyLocal: the plan could not be proven distributable; the
	// coordinator must run it on its local full replica.
	StrategyLocal Strategy = iota
	// StrategySingleShard: the plan reads only broadcast tables, so any
	// one shard produces the exact global stream.
	StrategySingleShard
	// StrategyMergeGather: every shard runs the fragment over its rows;
	// the coordinator k-way merges the streams on Cut.Keys.
	StrategyMergeGather
	// StrategyPartialAgg: the root is a global aggregate; each shard
	// computes a partial row and the coordinator combines per Cut.Combines.
	StrategyPartialAgg
)

func (s Strategy) String() string {
	switch s {
	case StrategySingleShard:
		return "single-shard"
	case StrategyMergeGather:
		return "merge-gather"
	case StrategyPartialAgg:
		return "partial-agg"
	default:
		return "local"
	}
}

// CombineFn is how the coordinator folds one output column of per-shard
// partial aggregate rows into the global value.
type CombineFn int

const (
	// CombineCount sums per-shard counts (never NULL).
	CombineCount CombineFn = iota
	// CombineSum sums non-NULL integer partials; all-NULL stays NULL.
	// Integer addition is associative (even on wraparound), so the
	// shard split cannot change the result; float sums are rejected.
	CombineSum
	// CombineMin / CombineMax keep the extreme non-NULL partial.
	CombineMin
	CombineMax
)

// Cut is the outcome of analyzing one plan against a Layout.
type Cut struct {
	Strategy Strategy
	// Keys are the merge keys (root output ordinals) for MergeGather.
	Keys []MergeKey
	// Combines has one entry per output column for PartialAgg.
	Combines []CombineFn
	// Reason says why the plan fell back to StrategyLocal.
	Reason string
	// HasGApply reports GApply nodes in the plan; for any distributed
	// strategy the coordinator must then pin partition=sort on the
	// shards so every fragment compiles to the congruent plan (Analyze
	// only distributes plans whose GApplys are all sort-partitioned).
	HasGApply bool
}

// Distributed reports whether the plan runs on the shards at all.
func (c Cut) Distributed() bool { return c.Strategy != StrategyLocal }

// Analyze decides how a plan can run over the layout's shards while
// reproducing the single-node stream byte for byte.
//
// The proof obligation per operator is the restriction property (P):
// "the stream this subtree produces on shard s equals the global stream
// restricted to the rows shard s owns". Partitioned scans satisfy (P)
// by construction (the shard loader draws the identical deterministic
// row stream and keeps its own rows, so the shard heap is the global
// heap restricted). Each case below states why the operator preserves
// (P); anything unproven falls back to StrategyLocal.
//
// At the root, (P)-streams are reassembled three ways:
//   - ordered merge, when the plan provides an ordering whose keys
//     resolve to output columns and at least one is a partition key —
//     rows equal on a partition key live on one shard, so cross-shard
//     ties are impossible and a merge that keeps per-source order
//     reproduces the global stream exactly;
//   - pass-through of one shard, when every base table is broadcast;
//   - partial-aggregate combination, when the root is a global AggOp
//     whose aggregates are combinable.
func Analyze(plan core.Node, layout Layout) Cut {
	a := &analyzer{layout: layout}
	cut := Cut{HasGApply: hasGApply(plan)}

	in := a.visit(plan)
	switch in.d {
	case broadcast:
		cut.Strategy = StrategySingleShard
		return cut

	case partitioned:
		ordering := core.ProvidedOrdering(plan)
		if len(ordering) == 0 {
			cut.Reason = "root provides no ordering to merge on"
			return cut
		}
		sch := plan.Schema()
		keys := make([]MergeKey, len(ordering))
		anchored := false
		for i, oc := range ordering {
			ord, err := sch.Resolve(oc.Table, oc.Name)
			if err != nil {
				cut.Reason = fmt.Sprintf("ordering column %s.%s not in output", oc.Table, oc.Name)
				return cut
			}
			keys[i] = MergeKey{Ord: ord, Desc: oc.Desc}
			if in.keys[ord] {
				anchored = true
			}
		}
		if !anchored {
			cut.Reason = "no merge key is a partition key; cross-shard ties possible"
			return cut
		}
		cut.Strategy = StrategyMergeGather
		cut.Keys = keys
		return cut
	}

	// Not distributable as a whole; a root global aggregate may still
	// be split into combinable partials. The planner leaves aggregate
	// roots as a renaming Project over the AggOp, so peel that first.
	if agg, colMap, ok := rootAgg(plan); ok {
		ai := a2partial(layout, agg, colMap)
		if ai.ok {
			cut.Strategy = StrategyPartialAgg
			cut.Combines = ai.combines
			return cut
		}
		if ai.reason != "" {
			cut.Reason = ai.reason
			return cut
		}
	}
	cut.Reason = a.reason
	if cut.Reason == "" {
		cut.Reason = "plan not distributable"
	}
	return cut
}

// rootAgg recognizes a global-aggregate root: either a bare AggOp or a
// column-selection Project over one (how the planner renames __aggN
// columns). colMap maps each root output ordinal to its AggOp ordinal.
func rootAgg(plan core.Node) (*core.AggOp, []int, bool) {
	if agg, ok := plan.(*core.AggOp); ok {
		m := make([]int, len(agg.Aggs))
		for i := range m {
			m[i] = i
		}
		return agg, m, true
	}
	p, ok := plan.(*core.Project)
	if !ok {
		return nil, nil, false
	}
	agg, ok := p.Input.(*core.AggOp)
	if !ok {
		return nil, nil, false
	}
	asch := agg.Schema()
	m := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		c, ok := e.(*core.ColRef)
		if !ok {
			return nil, nil, false
		}
		ord, err := asch.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, nil, false
		}
		m[i] = ord
	}
	return agg, m, true
}

type partialInfo struct {
	ok       bool
	combines []CombineFn
	reason   string
}

// a2partial checks a root AggOp for the partial-aggregate strategy: the
// input must satisfy (P) and every aggregate must be combinable. colMap
// maps root output ordinals to AggOp ordinals (the root may re-project).
func a2partial(layout Layout, agg *core.AggOp, colMap []int) partialInfo {
	a := &analyzer{layout: layout}
	in := a.visit(agg.Input)
	if in.d != partitioned {
		return partialInfo{}
	}
	isch := agg.Input.Schema()
	combines := make([]CombineFn, len(colMap))
	for i, ord := range colMap {
		s := agg.Aggs[ord]
		fn, ok := combineOf(s, isch)
		if !ok {
			return partialInfo{reason: fmt.Sprintf("aggregate %s is not combinable", s.OutName())}
		}
		combines[i] = fn
	}
	return partialInfo{ok: true, combines: combines}
}

// combineOf maps an aggregate spec to its partial-combination function.
// DISTINCT aggregates need global duplicate elimination; AVG needs a
// sum/count split the wire does not carry; float SUM addition is not
// associative. All three stay local.
func combineOf(s core.AggSpec, in *schema.Schema) (CombineFn, bool) {
	if s.Distinct {
		return 0, false
	}
	switch strings.ToLower(s.Fn) {
	case "count":
		return CombineCount, true
	case "min":
		return CombineMin, true
	case "max":
		return CombineMax, true
	case "sum":
		if s.OutType(in) == types.KindInt {
			return CombineSum, true
		}
	}
	return 0, false
}

// ------------------------------------------------------------ analysis

// dist classifies a subtree's relationship to the shard layout.
type dist int

const (
	// notDist: the subtree could not be proven to satisfy (P).
	notDist dist = iota
	// broadcast: the subtree reads only replicated tables, so every
	// shard produces the identical global stream.
	broadcast
	// partitioned: the subtree satisfies (P).
	partitioned
)

// info carries the classification up the tree. keys is the set of
// output ordinals c such that the shard owning any emitted row is
// ShardOf(row[c]) — i.e. columns that still carry the partition key.
type info struct {
	d    dist
	keys map[int]bool
}

type analyzer struct {
	layout Layout
	reason string // first failure, for Cut.Reason
}

func (a *analyzer) fail(format string, args ...any) info {
	if a.reason == "" {
		a.reason = fmt.Sprintf(format, args...)
	}
	return info{d: notDist}
}

func (a *analyzer) visit(n core.Node) info {
	switch x := n.(type) {
	case *core.Scan:
		return a.scanInfo(x.Table, x.Schema())

	case *core.IndexScan:
		// An ordered index scan preserves (P): the index orders rows by
		// key then heap position (stable), and a stable sort of the
		// restricted heap is the restriction of the stably sorted
		// global heap. Range bounds are a row-wise filter on top; a
		// heap-order seek is exactly that filter over the heap scan.
		return a.scanInfo(x.Table, x.Schema())

	case *core.Select:
		// A row-wise filter of a restriction is the restriction of the
		// filter (and filtering identical replicas stays identical).
		return a.visit(x.Input)

	case *core.Project:
		in := a.visit(x.Input)
		if in.d == notDist {
			return in
		}
		// Row-wise map preserves (P); partition-key knowledge survives
		// only through plain column references.
		out := info{d: in.d, keys: map[int]bool{}}
		isch := x.Input.Schema()
		for i, e := range x.Exprs {
			c, ok := e.(*core.ColRef)
			if !ok {
				continue
			}
			if ord, err := isch.Resolve(c.Table, c.Name); err == nil && in.keys[ord] {
				out.keys[i] = true
			}
		}
		return out

	case *core.Distinct:
		in := a.visit(x.Input)
		switch {
		case in.d == broadcast:
			return in
		case in.d == partitioned && len(in.keys) > 0:
			// Duplicate rows agree on every column, in particular on a
			// partition-key column, so each duplicate set lives on one
			// shard: per-shard dedup in first-appearance order is the
			// restriction of global dedup.
			return in
		case in.d == partitioned:
			return a.fail("distinct over partitioned input without a partition-key column")
		}
		return in

	case *core.OrderBy:
		// Stable sort of a restriction = restriction of the stable sort.
		in := a.visit(x.Input)
		return in

	case *core.Join:
		return a.joinInfo(x)

	case *core.GroupBy:
		return a.groupByInfo(x)

	case *core.AggOp:
		in := a.visit(x.Input)
		if in.d == broadcast {
			return info{d: broadcast}
		}
		// A global aggregate collapses a partitioned input to one row
		// per shard; only the root PartialAgg strategy can fix that up.
		return a.fail("global aggregate over partitioned input")

	case *core.GApply:
		return a.gapplyInfo(x)

	case *core.UnionAll:
		return a.unionInfo(x)

	case *core.Apply:
		// The inner side runs once per outer row against replicated
		// data only, so its result depends on the outer row alone and
		// is identical on whichever shard evaluates it.
		if t := firstPartitionedTable(x.Inner, a.layout); t != "" {
			return a.fail("apply inner side reads partitioned table %s", t)
		}
		in := a.visit(x.Outer)
		if in.d == notDist {
			return in
		}
		return info{d: in.d, keys: in.keys}

	case *core.Exists:
		in := a.visit(x.Input)
		if in.d == broadcast {
			return info{d: broadcast}
		}
		return a.fail("exists over partitioned input")

	default:
		return a.fail("operator %T not analyzable for distribution", n)
	}
}

// scanInfo classifies a base-table scan under the layout.
func (a *analyzer) scanInfo(table string, sch *schema.Schema) info {
	col := a.layout.partitionCol(table)
	if col == "" {
		return info{d: broadcast}
	}
	ord, err := sch.Resolve("", col)
	if err != nil {
		return a.fail("partition column %s.%s: %v", table, col, err)
	}
	return info{d: partitioned, keys: map[int]bool{ord: true}}
}

func (a *analyzer) joinInfo(j *core.Join) info {
	li, ri := a.visit(j.Left), a.visit(j.Right)
	if li.d == notDist || ri.d == notDist {
		return info{d: notDist}
	}
	lw := j.Left.Schema().Len()

	switch {
	case li.d == broadcast && ri.d == broadcast:
		return info{d: broadcast}

	case li.d == partitioned && ri.d == broadcast:
		// Every potential match of a shard's outer row is replicated
		// locally, so the shard emits exactly the global pairs whose
		// left row it owns, in (left, right) order: (P) holds. A left
		// outer join is safe for the same reason — "no match locally"
		// means "no match globally".
		return info{d: partitioned, keys: li.keys}

	case li.d == broadcast && ri.d == partitioned:
		if j.Kind == core.LeftOuterJoin {
			// A left row whose matches live on another shard would be
			// NULL-padded here and matched there.
			return a.fail("left outer join with partitioned right input")
		}
		out := info{d: partitioned, keys: map[int]bool{}}
		for ord := range ri.keys {
			out.keys[lw+ord] = true
		}
		return out

	default: // both partitioned: need co-partitioning on an equi pair
		ls, rs := j.Left.Schema(), j.Right.Schema()
		for _, p := range j.EquiPairs() {
			lo, lerr := ls.Resolve(p.Left.Table, p.Left.Name)
			ro, rerr := rs.Resolve(p.Right.Table, p.Right.Name)
			if lerr == nil && rerr == nil && li.keys[lo] && ri.keys[ro] {
				// Matching rows agree on the equi columns, which are
				// partition keys on both sides, so every global join
				// pair is co-located on exactly one shard. This also
				// covers left outer: all matches of a left row share
				// its shard, so local no-match is global no-match.
				out := info{d: partitioned, keys: map[int]bool{}}
				for o := range li.keys {
					out.keys[o] = true
				}
				for o := range ri.keys {
					out.keys[lw+o] = true
				}
				return out
			}
		}
		return a.fail("join of two partitioned inputs without a co-partitioning equi-join key")
	}
}

func (a *analyzer) groupByInfo(g *core.GroupBy) info {
	in := a.visit(g.Input)
	if in.d != partitioned {
		return in // broadcast grouping is identical everywhere; notDist propagates
	}
	isch := g.Input.Schema()
	out := info{d: partitioned, keys: map[int]bool{}}
	for i, c := range g.GroupCols {
		if ord, err := isch.Resolve(c.Table, c.Name); err == nil && in.keys[ord] {
			out.keys[i] = true
		}
	}
	if len(out.keys) == 0 {
		// A group split across shards would emit one partial row per
		// shard; grouping must follow the partitioning.
		return a.fail("group by without a partition-key grouping column")
	}
	// Groups are whole on their shard, so per-shard aggregates are the
	// global values and first-appearance group order is the restriction
	// of the global first-appearance order.
	return out
}

func (a *analyzer) gapplyInfo(g *core.GApply) info {
	if g.Partition != core.PartitionSort {
		// Only sort partitioning both preserves (P) with a provable
		// root ordering and can be pinned congruently on every shard.
		return a.fail("gapply is %s-partitioned; only sort partitioning is distributable", g.Partition)
	}
	if t := firstPartitionedTable(g.Inner, a.layout); t != "" {
		return a.fail("gapply inner query reads partitioned table %s", t)
	}
	in := a.visit(g.Outer)
	if in.d == broadcast {
		return info{d: broadcast}
	}
	if in.d != partitioned {
		return in
	}
	osch := g.Outer.Schema()
	out := info{d: partitioned, keys: map[int]bool{}}
	for i, c := range g.GroupCols {
		if ord, err := osch.Resolve(c.Table, c.Name); err == nil && in.keys[ord] {
			out.keys[i] = true
		}
	}
	if len(out.keys) == 0 {
		return a.fail("gapply groups are not aligned with the partitioning")
	}
	// Sort partitioning emits groups in key order (stable in the outer
	// stream), groups are whole per shard, and the per-group inner query
	// sees only the group plus replicated tables: the shard stream is
	// the restriction of the global stream.
	return out
}

func (a *analyzer) unionInfo(u *core.UnionAll) info {
	// UNION ALL concatenates branch streams, and concatenation of
	// restrictions is the restriction of the concatenation — but only
	// if every branch is partitioned (a broadcast branch would be
	// emitted once per shard instead of once globally).
	infos := make([]info, len(u.Inputs))
	nPart := 0
	for i, in := range u.Inputs {
		infos[i] = a.visit(in)
		switch infos[i].d {
		case notDist:
			return infos[i]
		case partitioned:
			nPart++
		}
	}
	switch nPart {
	case 0:
		return info{d: broadcast}
	case len(u.Inputs):
		keys := map[int]bool{}
		for o := range infos[0].keys {
			keys[o] = true
		}
		for _, ci := range infos[1:] {
			for o := range keys {
				if !ci.keys[o] {
					delete(keys, o)
				}
			}
		}
		return info{d: partitioned, keys: keys}
	default:
		return a.fail("union all mixes partitioned and broadcast branches")
	}
}

// firstPartitionedTable scans a subtree for any base-table access to a
// partitioned table, returning its name ("" if none). Used for inner
// sides that must be shard-independent.
func firstPartitionedTable(n core.Node, l Layout) string {
	switch x := n.(type) {
	case *core.Scan:
		if l.partitionCol(x.Table) != "" {
			return x.Table
		}
	case *core.IndexScan:
		if l.partitionCol(x.Table) != "" {
			return x.Table
		}
	}
	for _, c := range n.Children() {
		if t := firstPartitionedTable(c, l); t != "" {
			return t
		}
	}
	return ""
}

// hasGApply reports any GApply anywhere in the tree (including inner
// sides, which Children covers).
func hasGApply(n core.Node) bool {
	if _, ok := n.(*core.GApply); ok {
		return true
	}
	for _, c := range n.Children() {
		if hasGApply(c) {
			return true
		}
	}
	return false
}
