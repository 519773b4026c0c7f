// Package xmlpub is the XML publishing layer the paper's workload comes
// from: XML views of relational data (Figure 1), an XQuery-FLWR query
// fragment over them (§2's Q1/Q2 and §4.2's group selections), and two
// server translation strategies —
//
//   - SortedOuterUnionSQL: the classic XPeranto-style "sorted outer
//     union" plan: one SQL statement per query, unioning one branch per
//     content section, padded with NULLs, ordered by the element key so
//     a constant-space tagger can assemble elements; and
//   - GApplySQL: the paper's approach, using the extended syntax
//     (select gapply(...) ... group by key : var), whose GApply operator
//     clusters output by construction and avoids the redundant joins the
//     outer union repeats per branch.
//
// Both strategies produce rows in the same (key, branch, slots...)
// layout, so a single Tagger turns either into XML.
package xmlpub

import (
	"fmt"
	"strings"
)

// Field maps a relational column to an XML tag. With Attr set the
// value is published as an attribute of the wrapping child element
// instead of a sub-element — the paper's Figure 1 allows both mappings
// ("relational attributes can be mapped to sub-elements or
// attributes").
type Field struct {
	Col  string
	Tag  string
	Attr bool
}

// View is a two-level XML view of relational data in the style of the
// paper's Figure 1: one element per distinct key value of a join, with
// the joined child rows nested inside it.
type View struct {
	RootTag string // document element, e.g. "suppliers"
	ElemTag string // per-group element, e.g. "supplier"

	// Tables are the base tables joined to flatten the view; the first
	// table owns the key column (translation aliases it for correlated
	// subqueries). JoinCond must use unqualified column names.
	Tables   []string
	JoinCond string

	KeyCol string // grouping column, e.g. "ps_suppkey"
	KeyTag string // its XML tag, e.g. "suppkey"

	ChildTag    string  // nested element tag, e.g. "part"
	ChildFields []Field // its content
}

// TPCHSupplierView is the paper's running example: supplier elements
// over partsupp ⋈ part, with the supplied parts nested inside.
func TPCHSupplierView() *View {
	return &View{
		RootTag:  "suppliers",
		ElemTag:  "supplier",
		Tables:   []string{"partsupp", "part"},
		JoinCond: "ps_partkey = p_partkey",
		KeyCol:   "ps_suppkey",
		KeyTag:   "suppkey",
		ChildTag: "part",
		ChildFields: []Field{
			{Col: "p_name", Tag: "name"},
			{Col: "p_retailprice", Tag: "retailprice"},
		},
	}
}

// AggRef names a subtree aggregate, optionally scaled: avg(col),
// 0.9·max(col), …. Scale 0 means 1.
type AggRef struct {
	Fn    string
	Col   string
	Scale float64
}

func (a AggRef) scaleSQL(sub string) string {
	if a.Scale != 0 && a.Scale != 1 {
		return fmt.Sprintf("%g * %s", a.Scale, sub)
	}
	return sub
}

// ItemKind classifies return-clause items.
type ItemKind int

const (
	// ItemChildList emits the nested child elements, optionally filtered
	// by a comparison of a column with a subtree aggregate (Q1, Q3).
	ItemChildList ItemKind = iota
	// ItemAgg emits one scalar: a subtree aggregate (Q1's avgprice).
	ItemAgg
	// ItemFilteredCount emits one scalar: the count of children whose
	// column compares against a subtree aggregate (Q2's counts).
	ItemFilteredCount
)

// Item is one piece of constructed element content.
type Item struct {
	Kind ItemKind
	Tag  string // output tag: wrapping tag for lists, value tag for scalars

	// For ItemChildList / ItemFilteredCount: the optional filter
	// "FilterCol FilterOp [FilterAgg]".
	FilterCol string
	FilterOp  string
	FilterAgg *AggRef

	// For ItemAgg: the aggregate to emit.
	Agg *AggRef
}

// PredKind classifies subtree predicates (the paper's §4.2 group
// selections).
type PredKind int

const (
	// PredExists keeps elements with some child satisfying Cond.
	PredExists PredKind = iota
	// PredAggregate keeps elements whose subtree aggregate compares
	// against a literal.
	PredAggregate
)

// SubtreePred is the optional FLWR where-clause.
type SubtreePred struct {
	Kind PredKind
	// Cond is a SQL condition over child columns (PredExists).
	Cond string
	// Agg CmpOp Lit (PredAggregate), e.g. avg(p_retailprice) > 10000.
	Agg   AggRef
	CmpOp string
	Lit   float64
}

// FLWR is the supported XQuery fragment: iterate a view's elements,
// optionally filter by a subtree predicate, and return constructed
// content.
type FLWR struct {
	View   *View
	Where  *SubtreePred
	Return []Item
}

// Q1 is the paper's first example: each supplier's parts plus the
// overall average retail price.
func Q1() *FLWR {
	v := TPCHSupplierView()
	return &FLWR{
		View: v,
		Return: []Item{
			{Kind: ItemChildList, Tag: v.ChildTag},
			{Kind: ItemAgg, Tag: "avgprice", Agg: &AggRef{Fn: "avg", Col: "p_retailprice"}},
		},
	}
}

// Q2 counts each supplier's parts priced at/above and below the
// supplier's average.
func Q2() *FLWR {
	v := TPCHSupplierView()
	avg := &AggRef{Fn: "avg", Col: "p_retailprice"}
	return &FLWR{
		View: v,
		Return: []Item{
			{Kind: ItemFilteredCount, Tag: "count_above", FilterCol: "p_retailprice", FilterOp: ">=", FilterAgg: avg},
			{Kind: ItemFilteredCount, Tag: "count_below", FilterCol: "p_retailprice", FilterOp: "<", FilterAgg: avg},
		},
	}
}

// Q3 lists each supplier's high-end and low-end parts: high-end parts
// cost at least hi × the maximum price, low-end at most lo × the
// minimum.
func Q3(hi, lo float64) *FLWR {
	v := TPCHSupplierView()
	return &FLWR{
		View: v,
		Return: []Item{
			{Kind: ItemChildList, Tag: "highend", FilterCol: "p_retailprice", FilterOp: ">=",
				FilterAgg: &AggRef{Fn: "max", Col: "p_retailprice", Scale: hi}},
			{Kind: ItemChildList, Tag: "lowend", FilterCol: "p_retailprice", FilterOp: "<=",
				FilterAgg: &AggRef{Fn: "min", Col: "p_retailprice", Scale: lo}},
		},
	}
}

// Q4 is the paper's fourth example restated over the two-level view:
// for each (supplier, size) element, parts priced above that group's
// average. It uses a composite key, so it has no FLWR form here; the
// exact SQL the harness uses is experiments.Figure8Queries' Q4.
//
// ExpensiveSuppliers is §4.2's existential group selection: suppliers
// supplying some part above the threshold, returned whole.
func ExpensiveSuppliers(threshold float64) *FLWR {
	v := TPCHSupplierView()
	return &FLWR{
		View: v,
		Where: &SubtreePred{
			Kind: PredExists,
			Cond: fmt.Sprintf("p_retailprice > %g", threshold),
		},
		Return: []Item{{Kind: ItemChildList, Tag: v.ChildTag}},
	}
}

// RichSuppliers is §4.2's aggregate group selection: suppliers whose
// average part price exceeds the threshold, returned whole.
func RichSuppliers(threshold float64) *FLWR {
	v := TPCHSupplierView()
	return &FLWR{
		View: v,
		Where: &SubtreePred{
			Kind:  PredAggregate,
			Agg:   AggRef{Fn: "avg", Col: "p_retailprice"},
			CmpOp: ">",
			Lit:   threshold,
		},
		Return: []Item{{Kind: ItemChildList, Tag: v.ChildTag}},
	}
}

// fields returns the columns an item emits (lists emit the child
// fields; scalars emit one slot).
func (it Item) fields(v *View) []Field {
	if it.Kind == ItemChildList {
		return v.ChildFields
	}
	return []Field{{Col: "", Tag: it.Tag}}
}

// Validate checks the query is well-formed.
func (q *FLWR) Validate() error {
	if q.View == nil {
		return fmt.Errorf("xmlpub: query has no view")
	}
	if len(q.View.Tables) == 0 || q.View.KeyCol == "" {
		return fmt.Errorf("xmlpub: view needs tables and a key column")
	}
	if len(q.Return) == 0 {
		return fmt.Errorf("xmlpub: query returns nothing")
	}
	for _, it := range q.Return {
		switch it.Kind {
		case ItemAgg:
			if it.Agg == nil {
				return fmt.Errorf("xmlpub: aggregate item %q has no aggregate", it.Tag)
			}
		case ItemFilteredCount:
			if it.FilterCol == "" || it.FilterOp == "" || it.FilterAgg == nil {
				return fmt.Errorf("xmlpub: filtered count %q is incomplete", it.Tag)
			}
		}
	}
	if q.Where != nil && q.Where.Kind == PredExists && strings.TrimSpace(q.Where.Cond) == "" {
		return fmt.Errorf("xmlpub: exists predicate has no condition")
	}
	return nil
}
