package core

import (
	"strings"

	"gapplydb/internal/schema"
)

// Provided/required orderings. An ordering is a sequence of columns the
// rows of an operator's output are sorted by (types.SortCompare per
// column, NULLs first when ascending). The propagation here is
// deliberately conservative and tie-exact: an operator only claims an
// ordering when its output is byte-for-byte what a stable sort on those
// keys would produce — equal-key rows in input (ultimately heap) order.
// That discipline is what lets the optimizer substitute index order for
// explicit sorts without changing any output, which the differential
// suites assert.

// OrderedCol is one column of an ordering, canonically qualified.
type OrderedCol struct {
	Table, Name string
	Desc        bool
}

func (o OrderedCol) String() string {
	name := o.Name
	if o.Table != "" {
		name = o.Table + "." + o.Name
	}
	if o.Desc {
		return name + " DESC"
	}
	return name + " ASC"
}

// equalCol compares qualified columns case-insensitively.
func (o OrderedCol) equalCol(p OrderedCol) bool {
	return strings.EqualFold(o.Table, p.Table) && strings.EqualFold(o.Name, p.Name) && o.Desc == p.Desc
}

// OrderingEquals reports whether two orderings are exactly equal —
// same columns, same directions, same length. Exactness (not prefix
// subsumption) is required throughout the order pass: a longer provided
// ordering sorts equal-prefix rows by its extra columns, which differs
// from the stable sort's input-order ties.
func OrderingEquals(a, b []OrderedCol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equalCol(b[i]) {
			return false
		}
	}
	return true
}

// CanonOrderedCol resolves a column reference against a schema into a
// canonically qualified OrderedCol (the schema's own table/name pair),
// so unqualified references compare equal to qualified ones.
func CanonOrderedCol(c *ColRef, sch *schema.Schema, desc bool) (OrderedCol, bool) {
	ord, err := sch.Resolve(c.Table, c.Name)
	if err != nil {
		return OrderedCol{}, false
	}
	col := sch.Cols[ord]
	return OrderedCol{Table: col.Table, Name: col.Name, Desc: desc}, true
}

// RequiredOrdering converts an OrderBy's keys into an ordering, when
// every key is a plain column reference resolvable in the input schema.
// Any computed key makes the sort unservable by an access path.
func RequiredOrdering(keys []OrderKey, in *schema.Schema) ([]OrderedCol, bool) {
	out := make([]OrderedCol, 0, len(keys))
	for _, k := range keys {
		c, ok := k.Expr.(*ColRef)
		if !ok {
			return nil, false
		}
		oc, ok := CanonOrderedCol(c, in, k.Desc)
		if !ok {
			return nil, false
		}
		out = append(out, oc)
	}
	return out, true
}

// ProvidedOrdering returns the ordering n's output rows are known to
// have (nil when unordered). Only operators that preserve or establish
// tie-exact order participate; everything else conservatively reports
// unordered.
func ProvidedOrdering(n Node) []OrderedCol {
	switch x := n.(type) {
	case *IndexScan:
		if x.HeapOrder && !x.HeapSorted {
			// A heap-order seek emits its window in heap position order:
			// the rows of Scan+Select, which claim no ordering either.
			// Over a heap already in key order that is the key order.
			return nil
		}
		sch := x.Schema()
		out := make([]OrderedCol, len(x.Ords))
		for i, ord := range x.Ords {
			col := sch.Cols[ord]
			out[i] = OrderedCol{Table: col.Table, Name: col.Name}
		}
		return out
	case *OrderBy:
		// A sort (elided or not) provides its key ordering when the keys
		// are plain columns.
		if req, ok := RequiredOrdering(x.Keys, x.Input.Schema()); ok {
			return req
		}
		return nil
	case *Select:
		// Filtering preserves relative order.
		return ProvidedOrdering(x.Input)
	case *Join:
		// Hash and merge joins stream their left (probe) input and emit
		// each probe row's matches — or, left outer, its NULL-padded row —
		// before the next probe row's: the output is in left-input order,
		// so it keeps the left input's ordering. Nested loops claims none.
		if x.Method == JoinHash || x.Method == JoinMerge {
			return ProvidedOrdering(x.Left)
		}
		return nil
	case *Project:
		return projectOrdering(x)
	case *GApply:
		// A GApply over an outer in group-key order streams: it emits its
		// groups in key order, each group's rows together — what a stable
		// sort of its output by the grouping prefix would leave as it is.
		// Hash partitioning of an unordered outer emits groups in
		// first-appearance order, which claims nothing.
		if !GApplyOuterOrdered(x) {
			return nil
		}
		sch := x.Schema()
		out := make([]OrderedCol, 0, len(x.GroupCols))
		for i := range x.GroupCols {
			col := sch.Cols[i]
			out = append(out, OrderedCol{Table: col.Table, Name: col.Name})
		}
		return out
	default:
		return nil
	}
}

// projectOrdering maps the input ordering through a projection: the
// longest prefix of the input ordering whose columns survive as plain
// column references, renamed to their output-schema qualifications.
// Dropping a suffix is sound — rows sorted by (a, b) are sorted by (a) —
// but note the result is then a *weaker* claim, with ties no longer in
// input order; OrderingEquals' exactness requirement keeps that claim
// from being consumed where tie order matters.
func projectOrdering(p *Project) []OrderedCol {
	in := ProvidedOrdering(p.Input)
	if len(in) == 0 {
		return nil
	}
	inSch := p.Input.Schema()
	outSch := p.Schema()
	var out []OrderedCol
	for _, oc := range in {
		found := false
		for i, e := range p.Exprs {
			c, ok := e.(*ColRef)
			if !ok {
				continue
			}
			canon, ok := CanonOrderedCol(c, inSch, oc.Desc)
			if !ok || !canon.equalCol(oc) {
				continue
			}
			col := outSch.Cols[i]
			out = append(out, OrderedCol{Table: col.Table, Name: col.Name, Desc: oc.Desc})
			found = true
			break
		}
		if !found {
			break
		}
	}
	// Exactness guard: only claim the full ordering. A proper prefix has
	// different tie behavior than the stable sorts this pass substitutes
	// for, so it must not be offered as "the" ordering.
	if len(out) != len(in) {
		return nil
	}
	return out
}

// GApplyOuterOrdered reports whether g's outer input already provides
// exactly the ascending group-column order a sort partitioning would
// impose — from an index, or from the enforcer sort LowerSortPartition
// places. Its groups then arrive as runs of equal keys, in key order,
// which is also their first-appearance order: sort partitioning's stable
// sort and hash partitioning's first-appearance numbering would both
// leave the outer exactly as it is. The executor therefore streams such
// a GApply under either hint — it cuts each run as it closes and runs
// its group at once — and hashes every other GApply; EXPLAIN marks it
// "(streaming)". Shared by the cost model, the executor and EXPLAIN so
// they agree on when it applies.
func GApplyOuterOrdered(g *GApply) bool {
	if len(g.GroupCols) == 0 {
		return false
	}
	have := ProvidedOrdering(g.Outer)
	if len(have) != len(g.GroupCols) {
		return false
	}
	sch := g.Outer.Schema()
	want := make([]OrderedCol, 0, len(g.GroupCols))
	for _, c := range g.GroupCols {
		oc, ok := CanonOrderedCol(c, sch, false)
		if !ok {
			return false
		}
		want = append(want, oc)
	}
	return OrderingEquals(have, want)
}

// LowerSortPartition expresses g's sort partitioning — §3's second
// Partition-phase implementation — as an enforcer sort under a streaming
// GApply. A sort-hinted g whose outer does not already provide the
// ascending group-column order is returned as a copy over
// OrderBy{group columns, ASC} of that outer. The sort is stable, so it
// leaves each group a run of equal keys in outer-input order, the runs in
// key order: the groups, and the group order, sort partitioning defines.
// The executor then cuts the runs as they stream (GApplyOuterOrdered),
// and the order pass elides the sort wherever an index provides the
// order. Any other g is returned as it is. Shared by the optimizer, which
// lowers every sort-hinted GApply it plans, and by plans built by hand.
func LowerSortPartition(g *GApply) *GApply {
	if g.Partition != PartitionSort || GApplyOuterOrdered(g) {
		return g
	}
	keys := make([]OrderKey, len(g.GroupCols))
	for i, c := range g.GroupCols {
		keys[i] = OrderKey{Expr: c}
	}
	cp := *g
	cp.Outer = &OrderBy{Input: g.Outer, Keys: keys}
	return &cp
}

// FormatOrdering renders an ordering for EXPLAIN annotations.
func FormatOrdering(cols []OrderedCol) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}
