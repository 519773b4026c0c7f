package rules

import (
	"bytes"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Order placement substrate: given an ordering some consumer is
// interested in (an ORDER BY's keys, a merge join's right equi-key, a
// sort-partitioned GApply's group columns), try to rewrite a subtree so
// it *provides* that ordering via an ordered secondary index — without
// changing a single output byte. The optimizer's order pass (internal/
// opt) decides where interesting orders exist and whether the rewrite
// pays; this file only answers "can this subtree deliver that order,
// and how".

// ProvideOrdering rewrites n so its output provides exactly `want`,
// returning the rewritten subtree. The rewrite is output-preserving in
// the strictest sense — same rows, same order, same ties — because the
// only change it ever makes is replacing a heap Scan with an IndexScan
// whose stable-sorted run equals a stable sort the consumer was going to
// perform anyway. Descending or computed orderings are never provided:
// a reverse index scan would reverse tie order relative to a stable
// sort, so only all-ascending plain-column orderings qualify.
func ProvideOrdering(n core.Node, want []core.OrderedCol, cat *storage.Catalog) (core.Node, bool) {
	if len(want) == 0 {
		return nil, false
	}
	for _, c := range want {
		if c.Desc {
			return nil, false
		}
	}
	if core.OrderingEquals(core.ProvidedOrdering(n), want) {
		return n, true
	}
	switch x := n.(type) {
	case *core.Scan:
		return scanToIndexScan(x, want, cat)
	case *core.Select:
		in, ok := ProvideOrdering(x.Input, want, cat)
		if !ok {
			return nil, false
		}
		// Filtering preserves order. When the ordered input is a bare
		// index scan, redundantly push any range conjuncts on the key
		// column down as scan bounds: the Select stays in place (so the
		// output is decided by it, bit for bit), the bounds just let the
		// scan seek instead of visiting rows the filter would drop.
		if is, isIdx := in.(*core.IndexScan); isIdx && !is.HasLo && !is.HasHi {
			in = pushKeyBounds(is, x.Cond)
		}
		return &core.Select{Input: in, Cond: x.Cond}, true
	case *core.Project:
		return projectProvideOrdering(x, want, cat)
	default:
		return nil, false
	}
}

// scanToIndexScan swaps a heap scan for an index scan when the catalog
// has an index whose key columns are exactly the wanted ordering.
func scanToIndexScan(s *core.Scan, want []core.OrderedCol, cat *storage.Catalog) (core.Node, bool) {
	sch := s.Schema()
	cols := make([]string, len(want))
	for i, c := range want {
		ord, err := sch.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, false
		}
		cols[i] = sch.Cols[ord].Name
	}
	ix := cat.OrderedIndex(s.Table, cols)
	if ix == nil {
		return nil, false
	}
	return &core.IndexScan{
		Table: s.Table,
		Def:   s.Def,
		Alias: s.Alias,
		Index: ix.Name,
		Cols:  append([]string(nil), ix.Cols...),
		Ords:  ix.Ords(),
	}, true
}

// projectProvideOrdering maps the wanted output-side ordering through a
// projection to input-side columns and recurses. Every wanted column
// must come out of a plain column reference; anything computed cannot
// carry an index order through.
func projectProvideOrdering(p *core.Project, want []core.OrderedCol, cat *storage.Catalog) (core.Node, bool) {
	inSch := p.Input.Schema()
	outSch := p.Schema()
	inner := make([]core.OrderedCol, len(want))
	for i, oc := range want {
		found := false
		for j, e := range p.Exprs {
			col := outSch.Cols[j]
			if !(strings.EqualFold(col.Table, oc.Table) && strings.EqualFold(col.Name, oc.Name)) {
				continue
			}
			c, isCol := e.(*core.ColRef)
			if !isCol {
				return nil, false
			}
			canon, ok := core.CanonOrderedCol(c, inSch, oc.Desc)
			if !ok {
				return nil, false
			}
			inner[i] = canon
			found = true
			break
		}
		if !found {
			return nil, false
		}
	}
	in, ok := ProvideOrdering(p.Input, inner, cat)
	if !ok {
		return nil, false
	}
	return &core.Project{Input: in, Exprs: p.Exprs, Names: p.Names, Qualifier: p.Qualifier}, true
}

// pushKeyBounds copies the col-vs-literal conjuncts of cond that
// constrain the index's key column onto the scan as seek bounds. The
// conjuncts themselves are NOT removed from the enclosing Select — the
// bounds are deliberately redundant, so the scan may only skip rows the
// filter was guaranteed to drop. Each side keeps its tightest bound,
// compared in the order-key encoding the run is sorted by (an equality
// bounds both sides; at equal keys an exclusive bound is the tighter),
// so the window is the intersection of every such conjunct — which is
// what lets the cost model treat all of them as applied by the seek.
func pushKeyBounds(is *core.IndexScan, cond core.Expr) *core.IndexScan {
	cp := *is
	// Bounds only make sense on a single-column index (KeyBound refuses
	// others): with a composite key the encoded leading-column bound is a
	// prefix, and the seek primitives (SeekGE/SeekGT on full keys) would
	// mis-handle inclusive upper bounds against longer keys sharing it.
	for _, c := range core.ConjunctsOf(cond) {
		op, lit, ok := is.KeyBound(c)
		if !ok {
			continue
		}
		if op == "=" || op == ">" || op == ">=" {
			incl := op != ">"
			if !cp.HasLo || tighter(lit, incl, cp.Lo, cp.LoIncl, 1) {
				cp.Lo, cp.HasLo, cp.LoIncl = lit, true, incl
			}
		}
		if op == "=" || op == "<" || op == "<=" {
			incl := op != "<"
			if !cp.HasHi || tighter(lit, incl, cp.Hi, cp.HiIncl, -1) {
				cp.Hi, cp.HasHi, cp.HiIncl = lit, true, incl
			}
		}
	}
	return &cp
}

// tighter reports whether bound (v, incl) narrows the window more than
// the current bound (cur, curIncl) on the side given by dir: +1 for a
// lower bound (larger is tighter), -1 for an upper bound (smaller is).
func tighter(v types.Value, incl bool, cur types.Value, curIncl bool, dir int) bool {
	c := bytes.Compare(v.AppendOrderKey(nil), cur.AppendOrderKey(nil))
	return c*dir > 0 || c == 0 && !incl && curIncl
}

// HeapOrderSeeks returns the bounded heap-order index scans that could
// replace the heap scan s under a Select with condition cond: one per
// single-column index of the table whose key column cond bounds, in
// index-name order. Each emits exactly the rows and order of the Scan
// its Select filters — a superset of the Select's output, in heap
// order — so swapping one in never changes a byte; whether it pays is
// the optimizer's cost decision.
func HeapOrderSeeks(s *core.Scan, cond core.Expr, cat *storage.Catalog) []*core.IndexScan {
	var out []*core.IndexScan
	for _, ix := range cat.Indexes() {
		if !strings.EqualFold(ix.Table, s.Table) || len(ix.Cols) != 1 {
			continue
		}
		is := pushKeyBounds(&core.IndexScan{
			Table: s.Table, Def: s.Def, Alias: s.Alias,
			Index: ix.Name, Cols: append([]string(nil), ix.Cols...), Ords: ix.Ords(),
			HeapOrder: true,
		}, cond)
		if is.HasLo || is.HasHi {
			out = append(out, is)
		}
	}
	return out
}
