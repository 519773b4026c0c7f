package core

import (
	"fmt"
	"strings"

	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Node is a logical operator. Schemas are computed structurally from
// children so rewrites stay consistent without bookkeeping.
type Node interface {
	Schema() *schema.Schema
	Children() []Node
	// WithChildren returns a copy of the node with the children replaced
	// (same arity). Scalar fields are shared; rules that modify them must
	// copy the node themselves.
	WithChildren(ch []Node) Node
	// Describe returns the operator's one-line EXPLAIN label.
	Describe() string
}

// ---------------------------------------------------------------- Scan

// Scan reads a base table.
type Scan struct {
	Table string
	Def   *schema.TableDef
	// Alias re-qualifies the table's columns (FROM t AS a). Empty means
	// the base name.
	Alias string
}

func (s *Scan) Schema() *schema.Schema {
	if s.Alias != "" {
		return s.Def.Schema.Rename(s.Alias)
	}
	return s.Def.Schema
}
func (s *Scan) Children() []Node          { return nil }
func (s *Scan) WithChildren([]Node) Node  { c := *s; return &c }
func (s *Scan) Describe() string {
	if s.Alias != "" && s.Alias != s.Table {
		return "Scan " + s.Table + " AS " + s.Alias
	}
	return "Scan " + s.Table
}

// ----------------------------------------------------------- IndexScan

// IndexScan reads a base table through an ordered secondary index: rows
// come out in the index's key order (ascending, ties in heap position
// order — the stable-sort tie rule), optionally restricted to a key
// range on the single index column. It is a physical access path placed
// by the optimizer's order and access-path passes; the binder never
// produces one.
type IndexScan struct {
	Table string
	Def   *schema.TableDef
	// Alias re-qualifies the table's columns (FROM t AS a).
	Alias string
	// Index names the catalog index; Cols are its key columns and Ords
	// their ordinals in the table schema.
	Index string
	Cols  []string
	Ords  []int
	// Optional bounds on the (single) key column. A bound is applied
	// during the scan: only rows whose key is within [Lo, Hi] (openness
	// per LoIncl/HiIncl) are emitted, still in index order. NULL keys
	// never satisfy a bound.
	Lo, Hi         types.Value
	HasLo, HasHi   bool
	LoIncl, HiIncl bool
	// HeapOrder marks a seek placed for a selective filter rather than
	// for an ordering: the bounded window's rows come out in heap
	// position order, so the scan emits exactly the rows, in exactly the
	// order, of the heap Scan its enclosing Select filtered — and
	// provides no ordering, unless HeapSorted.
	HeapOrder bool
	// HeapSorted records that the table's heap was in this index's key
	// order when the plan was compiled (storage.Index.HeapSorted): heap
	// order is then key order, ties in heap order, so a heap-order seek
	// provides its key ordering. EXPLAIN shows it as the provided
	// ordering, not on the operator line.
	HeapSorted bool
}

// KeyBound reports whether conjunct c compares the scan's (single) key
// column with a non-NULL literal — the shape a seek bound expresses —
// returning the operator (column on the left) and the literal. A NULL
// literal never qualifies: the comparison passes no row, but a NULL
// bound would admit NULL keys, which sort first.
func (s *IndexScan) KeyBound(c Expr) (string, types.Value, bool) {
	cmp, ok := c.(*Cmp)
	if !ok || len(s.Ords) != 1 {
		return "", types.Null, false
	}
	col, lit, op := CmpColLit(cmp)
	if col == nil || lit.IsNull() {
		return "", types.Null, false
	}
	switch op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", types.Null, false
	}
	if ord, err := s.Schema().Resolve(col.Table, col.Name); err != nil || ord != s.Ords[0] {
		return "", types.Null, false
	}
	return op, lit, true
}

func (s *IndexScan) Schema() *schema.Schema {
	if s.Alias != "" {
		return s.Def.Schema.Rename(s.Alias)
	}
	return s.Def.Schema
}
func (s *IndexScan) Children() []Node         { return nil }
func (s *IndexScan) WithChildren([]Node) Node { c := *s; return &c }
func (s *IndexScan) Describe() string {
	d := "IndexScan " + s.Table
	if s.Alias != "" && s.Alias != s.Table {
		d += " AS " + s.Alias
	}
	d += " using " + s.Index
	if s.HasLo || s.HasHi {
		var parts []string
		if s.HasLo {
			op := ">"
			if s.LoIncl {
				op = ">="
			}
			parts = append(parts, s.Cols[0]+" "+op+" "+s.Lo.SQLLiteral())
		}
		if s.HasHi {
			op := "<"
			if s.HiIncl {
				op = "<="
			}
			parts = append(parts, s.Cols[0]+" "+op+" "+s.Hi.SQLLiteral())
		}
		d += " [" + strings.Join(parts, " AND ") + "]"
	}
	if s.HeapOrder {
		d += " (heap order)"
	}
	return d
}

// ---------------------------------------------------------- GroupScan

// GroupScan is the leaf of a per-group query: it reads the temporary
// relation bound to the GApply group variable (paper §3, "when the leaf
// scan operator receives the relation-valued parameter, it understands
// this to be a temporary relation and reads from it").
type GroupScan struct {
	Var string
	Sch *schema.Schema
}

func (g *GroupScan) Schema() *schema.Schema  { return g.Sch }
func (g *GroupScan) Children() []Node        { return nil }
func (g *GroupScan) WithChildren([]Node) Node { c := *g; return &c }
func (g *GroupScan) Describe() string        { return "GroupScan $" + g.Var }

// -------------------------------------------------------------- Select

// Select filters rows by a predicate.
type Select struct {
	Input Node
	Cond  Expr
}

func (s *Select) Schema() *schema.Schema { return s.Input.Schema() }
func (s *Select) Children() []Node       { return []Node{s.Input} }
func (s *Select) WithChildren(ch []Node) Node {
	return &Select{Input: ch[0], Cond: s.Cond}
}
func (s *Select) Describe() string { return "Select " + s.Cond.String() }

// ------------------------------------------------------------- Project

// Project computes output columns from expressions. Names[i] is the
// alias (may be empty; ColRefs then keep their qualified name).
// Qualifier, when set, re-qualifies every output column — the shape of a
// derived table `(select …) AS alias(cols…)`.
type Project struct {
	Input     Node
	Exprs     []Expr
	Names     []string
	Qualifier string
}

// NewProject builds a projection, padding Names to the expression count.
func NewProject(in Node, exprs []Expr, names []string) *Project {
	for len(names) < len(exprs) {
		names = append(names, "")
	}
	return &Project{Input: in, Exprs: exprs, Names: names}
}

// ProjectCols builds a pure column projection preserving qualified names.
func ProjectCols(in Node, cols []*ColRef) *Project {
	exprs := make([]Expr, len(cols))
	for i, c := range cols {
		exprs[i] = c
	}
	return NewProject(in, exprs, nil)
}

func (p *Project) Schema() *schema.Schema {
	in := p.Input.Schema()
	cols := make([]schema.Column, len(p.Exprs))
	for i, e := range p.Exprs {
		name := ""
		if i < len(p.Names) {
			name = p.Names[i]
		}
		switch {
		case name != "":
			cols[i] = schema.Column{Name: name, Type: InferType(e, in)}
		default:
			if c, ok := e.(*ColRef); ok {
				if ord, err := in.Resolve(c.Table, c.Name); err == nil {
					cols[i] = in.Cols[ord]
					break
				}
			}
			cols[i] = schema.Column{Name: ExprName(e, i), Type: InferType(e, in)}
		}
		if p.Qualifier != "" {
			cols[i].Table = p.Qualifier
		}
	}
	return &schema.Schema{Cols: cols}
}
func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) WithChildren(ch []Node) Node {
	return &Project{Input: ch[0], Exprs: p.Exprs, Names: p.Names, Qualifier: p.Qualifier}
}
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
		if i < len(p.Names) && p.Names[i] != "" {
			parts[i] += " AS " + p.Names[i]
		}
	}
	return "Project " + strings.Join(parts, ", ")
}

// ------------------------------------------------------------ Distinct

// Distinct eliminates duplicate rows (the paper follows multiset
// semantics; duplicates are removed only by this operator).
type Distinct struct {
	Input Node
}

func (d *Distinct) Schema() *schema.Schema      { return d.Input.Schema() }
func (d *Distinct) Children() []Node            { return []Node{d.Input} }
func (d *Distinct) WithChildren(ch []Node) Node { return &Distinct{Input: ch[0]} }
func (d *Distinct) Describe() string            { return "Distinct" }

// ---------------------------------------------------------------- Join

// JoinKind distinguishes inner from left-outer joins. The paper's rules
// concern inner joins; left-outer exists for subquery decorrelation.
type JoinKind int

const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

// JoinMethod is the physical hint chosen by the optimizer.
type JoinMethod int

const (
	JoinAuto JoinMethod = iota
	JoinHash
	JoinNestedLoops
	// JoinMerge probes the right input's sorted run (the right child must
	// provide the equi-key order, e.g. via an IndexScan) with streaming
	// left rows. Emission order is identical to JoinHash by construction:
	// left-major in left-input order, matches in right-input order.
	JoinMerge
)

// Join combines two inputs on a condition.
type Join struct {
	Left, Right Node
	Kind        JoinKind
	Cond        Expr
	Method      JoinMethod
}

func (j *Join) Schema() *schema.Schema { return j.Left.Schema().Concat(j.Right.Schema()) }
func (j *Join) Children() []Node       { return []Node{j.Left, j.Right} }
func (j *Join) WithChildren(ch []Node) Node {
	return &Join{Left: ch[0], Right: ch[1], Kind: j.Kind, Cond: j.Cond, Method: j.Method}
}
func (j *Join) Describe() string {
	kind := "Join"
	if j.Kind == LeftOuterJoin {
		kind = "LeftOuterJoin"
	}
	cond := "true"
	if j.Cond != nil {
		cond = j.Cond.String()
	}
	d := kind + " on " + cond
	// Only the merge method is physically visible in the plan shape (it
	// requires an order-providing right child); hash/NL stay unlabeled so
	// their plan hashes are undisturbed.
	if _, probe := j.ProbedIndex(); probe {
		d += " (merge probe)"
	} else if j.Method == JoinMerge {
		d += " (merge)"
	}
	return d
}

// ProbedIndex returns the right input of a merge join when that input is
// a bare, unbounded, key-order IndexScan on the join's single right
// equi-key column. Such a join searches the index's stored run in place
// — one seek per left row, rows read through the run's positions —
// instead of draining the scan into a run of its own. The executor
// decides the probe from the plan, not from the iterator it built, so
// the path (and its counters) does not change under EXPLAIN ANALYZE's
// instrumentation. A right side the invariant-subtree spool
// materializes (inside a GApply's per-group query) is read from the
// spool instead; EXPLAIN ANALYZE marks that node as spooled.
func (j *Join) ProbedIndex() (*IndexScan, bool) {
	if j.Method != JoinMerge {
		return nil, false
	}
	is, ok := j.Right.(*IndexScan)
	if !ok || is.HeapOrder || is.HasLo || is.HasHi || len(is.Ords) != 1 {
		return nil, false
	}
	pairs := j.EquiPairs()
	if len(pairs) != 1 {
		return nil, false
	}
	if ord, err := is.Schema().Resolve(pairs[0].Right.Table, pairs[0].Right.Name); err != nil || ord != is.Ords[0] {
		return nil, false
	}
	return is, true
}

// EquiPairs extracts the equality column pairs (left-side, right-side)
// from the join condition; non-equi conjuncts are skipped. Used by the
// hash join and the invariant-grouping / foreign-key analysis.
func (j *Join) EquiPairs() []EquiPair {
	var out []EquiPair
	ls, rs := j.Left.Schema(), j.Right.Schema()
	for _, c := range ConjunctsOf(j.Cond) {
		cmp, ok := c.(*Cmp)
		if !ok || cmp.Op != "=" {
			continue
		}
		l, lok := cmp.L.(*ColRef)
		r, rok := cmp.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		switch {
		case ls.Has(l.Table, l.Name) && rs.Has(r.Table, r.Name):
			out = append(out, EquiPair{Left: l, Right: r})
		case ls.Has(r.Table, r.Name) && rs.Has(l.Table, l.Name):
			out = append(out, EquiPair{Left: r, Right: l})
		}
	}
	return out
}

// -------------------------------------------------------------- GroupBy

// AggSpec specifies one aggregate computation.
type AggSpec struct {
	Fn       string // count, sum, avg, min, max
	Arg      Expr   // nil for count(*)
	Star     bool
	Distinct bool
	As       string // output column name; derived from Fn when empty
}

// OutName returns the aggregate's result column name.
func (a AggSpec) OutName() string {
	if a.As != "" {
		return a.As
	}
	if a.Star {
		return a.Fn + "(*)"
	}
	if a.Arg != nil {
		return a.Fn + "(" + a.Arg.String() + ")"
	}
	return a.Fn
}

// OutType returns the aggregate's result kind given the input schema.
func (a AggSpec) OutType(in *schema.Schema) types.Kind {
	switch strings.ToLower(a.Fn) {
	case "count":
		return types.KindInt
	case "avg":
		return types.KindFloat
	case "sum", "min", "max":
		if a.Arg != nil {
			return InferType(a.Arg, in)
		}
		return types.KindFloat
	default:
		return types.KindNull
	}
}

func (a AggSpec) describe() string {
	arg := "*"
	if !a.Star && a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	s := a.Fn + "(" + d + arg + ")"
	if a.As != "" {
		s += " AS " + a.As
	}
	return s
}

// GroupBy groups on columns and computes aggregates per group. Output is
// the group columns followed by one column per aggregate.
type GroupBy struct {
	Input     Node
	GroupCols []*ColRef
	Aggs      []AggSpec
}

func (g *GroupBy) Schema() *schema.Schema {
	in := g.Input.Schema()
	cols := make([]schema.Column, 0, len(g.GroupCols)+len(g.Aggs))
	for _, c := range g.GroupCols {
		if ord, err := in.Resolve(c.Table, c.Name); err == nil {
			cols = append(cols, in.Cols[ord])
		} else {
			cols = append(cols, schema.Column{Table: c.Table, Name: c.Name})
		}
	}
	for _, a := range g.Aggs {
		cols = append(cols, schema.Column{Name: a.OutName(), Type: a.OutType(in)})
	}
	return &schema.Schema{Cols: cols}
}
func (g *GroupBy) Children() []Node { return []Node{g.Input} }
func (g *GroupBy) WithChildren(ch []Node) Node {
	return &GroupBy{Input: ch[0], GroupCols: g.GroupCols, Aggs: g.Aggs}
}
func (g *GroupBy) Describe() string {
	cols := make([]string, len(g.GroupCols))
	for i, c := range g.GroupCols {
		cols[i] = c.String()
	}
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.describe()
	}
	return "GroupBy [" + strings.Join(cols, ", ") + "] aggs [" + strings.Join(aggs, ", ") + "]"
}

// ---------------------------------------------------------------- AggOp

// AggOp is a scalar aggregate: no grouping, exactly one output row even
// on empty input (count(*) of the empty relation is 0 — the fact behind
// the paper's emptyOnEmpty analysis).
type AggOp struct {
	Input Node
	Aggs  []AggSpec
}

func (a *AggOp) Schema() *schema.Schema {
	in := a.Input.Schema()
	cols := make([]schema.Column, len(a.Aggs))
	for i, g := range a.Aggs {
		cols[i] = schema.Column{Name: g.OutName(), Type: g.OutType(in)}
	}
	return &schema.Schema{Cols: cols}
}
func (a *AggOp) Children() []Node { return []Node{a.Input} }
func (a *AggOp) WithChildren(ch []Node) Node {
	return &AggOp{Input: ch[0], Aggs: a.Aggs}
}
func (a *AggOp) Describe() string {
	aggs := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		aggs[i] = g.describe()
	}
	return "Aggregate [" + strings.Join(aggs, ", ") + "]"
}

// -------------------------------------------------------------- OrderBy

// OrderKey is one sort key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// OrderBy sorts its input.
type OrderBy struct {
	Input Node
	Keys  []OrderKey
	// Elided marks a sort the optimizer proved redundant: the input
	// already provides exactly this ordering (same keys, same tie order),
	// so execution passes rows through. The node stays in the plan — it
	// keeps its EXPLAIN line, its profile identity and its spool keying —
	// only the sort work disappears.
	Elided bool
}

func (o *OrderBy) Schema() *schema.Schema { return o.Input.Schema() }
func (o *OrderBy) Children() []Node       { return []Node{o.Input} }
func (o *OrderBy) WithChildren(ch []Node) Node {
	return &OrderBy{Input: ch[0], Keys: o.Keys, Elided: o.Elided}
}
func (o *OrderBy) Describe() string {
	keys := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		keys[i] = k.Expr.String()
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	d := "OrderBy " + strings.Join(keys, ", ")
	if o.Elided {
		d += " [elided]"
	}
	return d
}

// ------------------------------------------------------------- UnionAll

// UnionAll concatenates inputs (multiset union). Distinct union is
// Distinct over UnionAll.
type UnionAll struct {
	Inputs []Node
}

func (u *UnionAll) Schema() *schema.Schema { return u.Inputs[0].Schema() }
func (u *UnionAll) Children() []Node       { return u.Inputs }
func (u *UnionAll) WithChildren(ch []Node) Node {
	return &UnionAll{Inputs: ch}
}
func (u *UnionAll) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// ---------------------------------------------------------------- Apply

// ApplyKind selects apply semantics.
type ApplyKind int

const (
	// CrossApply is the paper's apply: R A E = ∪_{r∈R} ({r} × E(r)).
	CrossApply ApplyKind = iota
	// OuterApply pads a row of NULLs when E(r) is empty, preserving r —
	// the semantics scalar subqueries need outside aggregate inners.
	OuterApply
)

// Apply evaluates Inner once per Outer row, with the outer row visible to
// the inner tree through OuterRef expressions.
type Apply struct {
	Outer, Inner Node
	Kind         ApplyKind
}

func (a *Apply) Schema() *schema.Schema { return a.Outer.Schema().Concat(a.Inner.Schema()) }
func (a *Apply) Children() []Node       { return []Node{a.Outer, a.Inner} }
func (a *Apply) WithChildren(ch []Node) Node {
	return &Apply{Outer: ch[0], Inner: ch[1], Kind: a.Kind}
}
func (a *Apply) Describe() string {
	if a.Kind == OuterApply {
		return "OuterApply"
	}
	return "Apply"
}

// --------------------------------------------------------------- Exists

// Exists returns one tuple over the null schema if its input is nonempty,
// otherwise the empty relation (paper §4: S × {φ} = S and S × φ = φ, so
// Apply+Exists implements group/row selection). Negated inverts it.
type Exists struct {
	Input   Node
	Negated bool
}

func (e *Exists) Schema() *schema.Schema { return schema.New() }
func (e *Exists) Children() []Node       { return []Node{e.Input} }
func (e *Exists) WithChildren(ch []Node) Node {
	return &Exists{Input: ch[0], Negated: e.Negated}
}
func (e *Exists) Describe() string {
	if e.Negated {
		return "NotExists"
	}
	return "Exists"
}

// --------------------------------------------------------------- GApply

// PartitionHint selects the physical partitioning strategy for GApply.
type PartitionHint int

const (
	PartitionAuto PartitionHint = iota
	PartitionHash
	PartitionSort
)

func (p PartitionHint) String() string {
	switch p {
	case PartitionHash:
		return "hash"
	case PartitionSort:
		return "sort"
	default:
		return "auto"
	}
}

// GApply is the paper's operator: partition the outer input on GroupCols,
// bind each group to the relation-valued variable GroupVar, evaluate the
// per-group query Inner against it, and union the per-group results
// crossed with the grouping values:
//
//	RE1 GA_C RE2 = ∪_{c ∈ distinct(π_C(RE1))} ({c} × RE2(σ_{C=c} RE1))
type GApply struct {
	Outer     Node
	GroupCols []*ColRef
	GroupVar  string
	Inner     Node // per-group query; its leaves are GroupScan nodes
	Partition PartitionHint
}

// NewGApply builds a GApply whose inner GroupScans are (re)bound to the
// outer schema, which is what construction and every rule that changes
// the outer shape must do.
func NewGApply(outer Node, groupCols []*ColRef, groupVar string, inner Node) *GApply {
	inner = ReplaceGroupScans(inner, groupVar, outer.Schema())
	return &GApply{Outer: outer, GroupCols: groupCols, GroupVar: groupVar, Inner: inner}
}

func (g *GApply) Schema() *schema.Schema {
	out := g.Outer.Schema()
	cols := make([]schema.Column, 0, len(g.GroupCols)+g.Inner.Schema().Len())
	for _, c := range g.GroupCols {
		if ord, err := out.Resolve(c.Table, c.Name); err == nil {
			cols = append(cols, out.Cols[ord])
		} else {
			cols = append(cols, schema.Column{Table: c.Table, Name: c.Name})
		}
	}
	cols = append(cols, g.Inner.Schema().Cols...)
	return &schema.Schema{Cols: cols}
}
func (g *GApply) Children() []Node { return []Node{g.Outer, g.Inner} }
func (g *GApply) WithChildren(ch []Node) Node {
	return &GApply{Outer: ch[0], GroupCols: g.GroupCols, GroupVar: g.GroupVar, Inner: ch[1], Partition: g.Partition}
}
func (g *GApply) Describe() string {
	cols := make([]string, len(g.GroupCols))
	for i, c := range g.GroupCols {
		cols[i] = c.String()
	}
	d := fmt.Sprintf("GApply [%s] $%s (partition=%s)", strings.Join(cols, ", "), g.GroupVar, g.Partition)
	if GApplyOuterOrdered(g) {
		d += " (streaming)"
	}
	return d
}
