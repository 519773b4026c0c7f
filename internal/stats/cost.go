package stats

import (
	"math"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// Estimate is a cardinality + cost estimate for a plan node.
type Estimate struct {
	Rows float64
	Cost float64
}

// Per-row work constants. Only their ratios matter; they are tuned so
// the optimizer's choices match the executor's observed behaviour
// (hashing a row costs more than streaming it, sorting carries a log
// factor, re-executing an apply inner is a full inner cost).
const (
	cScanRow    = 1.0
	cFilterRow  = 0.2
	cProjectRow = 0.2
	cHashRow    = 1.5 // insert or probe
	cSortRow    = 1.0 // multiplied by log2(n)
	cGroupRow   = 1.8 // partition/aggregate bookkeeping per row
	cEmitRow    = 0.1
	cIndexRow   = 1.05 // sorted-run gather: heap fetch through one indirection
	cMergeRow   = 0.5  // merge join per-row work: stream left, binary-probe right
)

// Estimator derives cardinalities and costs from collected statistics.
// Estimate never mutates the receiver, so one Estimator may serve
// concurrent planning sessions (the stats it reads are frozen at
// Collect time).
type Estimator struct {
	Stats *Stats

	// groupRows is the assumed GroupScan cardinality while costing a
	// per-group query under the §4.4 uniformity assumption; it is set
	// only on the copied estimator estimateGApply descends with.
	groupRows float64

	// memo, when non-nil, records the estimate of every node visited —
	// set only on the copied estimator EstimateAll descends with, so the
	// shared estimator stays immutable under concurrent planning.
	memo map[core.Node]Estimate
}

// NewEstimator wraps stats for cost estimation.
func NewEstimator(s *Stats) *Estimator { return &Estimator{Stats: s} }

// EstimateAll computes the estimate of every node in the plan in one
// walk, keyed by node identity. Unlike calling Estimate per subtree, the
// per-group query's nodes are costed in context (GroupScan at the §4.4
// average group size, not 1 row) — the numbers EXPLAIN prints next to
// each operator.
func (e *Estimator) EstimateAll(n core.Node) map[core.Node]Estimate {
	sub := *e
	sub.memo = make(map[core.Node]Estimate)
	sub.Estimate(n)
	return sub.memo
}

// Estimate computes the estimate for a plan tree.
func (e *Estimator) Estimate(n core.Node) Estimate {
	est := e.estimate(n)
	if e.memo != nil {
		e.memo[n] = est
	}
	return est
}

func (e *Estimator) estimate(n core.Node) Estimate {
	switch x := n.(type) {
	case *core.Scan:
		rows := float64(e.Stats.TableRows(x.Table))
		return Estimate{Rows: rows, Cost: rows * cScanRow}

	case *core.IndexScan:
		// Reading through the sorted run costs slightly more per row than
		// a heap scan (position indirection) but delivers rows in key
		// order — the savings show up as elided sorts above, not here. A
		// bounded scan reads only its window; a heap-order window whose
		// positions may be out of heap order also pays a pass to check
		// them (the sort it rarely needs is not modelled).
		rows := float64(e.Stats.TableRows(x.Table)) * e.windowSelectivity(x)
		cost := rows * cIndexRow
		if x.HeapOrder && !equalityWindow(x) {
			cost += rows * cFilterRow
		}
		return Estimate{Rows: rows, Cost: cost}

	case *core.GroupScan:
		rows := e.groupRows
		if rows <= 0 {
			rows = 1
		}
		return Estimate{Rows: rows, Cost: rows * cScanRow}

	case *core.Select:
		in := e.Estimate(x.Input)
		sel := e.selectivity(x.Cond, in.Rows)
		if is, ok := x.Input.(*core.IndexScan); ok && (is.HasLo || is.HasHi) {
			// The scan's window already applied every conjunct its bounds
			// were taken from (pushKeyBounds keeps the tightest per side,
			// so the window is their intersection): estimate only the rest.
			sel = 1
			for _, c := range core.ConjunctsOf(x.Cond) {
				if _, _, bound := is.KeyBound(c); !bound {
					sel *= e.selectivity(c, in.Rows)
				}
			}
		}
		return Estimate{Rows: in.Rows * sel, Cost: in.Cost + in.Rows*cFilterRow}

	case *core.Project:
		in := e.Estimate(x.Input)
		return Estimate{Rows: in.Rows, Cost: in.Cost + in.Rows*cProjectRow}

	case *core.Distinct:
		in := e.Estimate(x.Input)
		out := in.Rows * 0.5
		if out < 1 {
			out = 1
		}
		return Estimate{Rows: out, Cost: in.Cost + in.Rows*cHashRow}

	case *core.Join:
		l, r := e.Estimate(x.Left), e.Estimate(x.Right)
		sel := 1.0
		pairs := x.EquiPairs()
		if len(pairs) > 0 {
			for _, p := range pairs {
				dl := e.Stats.ColumnDistinct(p.Left.Table, p.Left.Name, l.Rows)
				dr := e.Stats.ColumnDistinct(p.Right.Table, p.Right.Name, r.Rows)
				sel /= math.Max(dl, dr)
			}
		} else if x.Cond != nil {
			sel = 0.33
		}
		rows := l.Rows * r.Rows * sel
		if x.Kind == core.LeftOuterJoin && rows < l.Rows {
			rows = l.Rows
		}
		joinWork := r.Rows*cHashRow + l.Rows*cHashRow
		if x.Method == core.JoinMerge {
			// The right child delivers the equi-key order (index scan), so
			// the join neither builds nor probes a hash table: it encodes
			// the sorted right run and binary-searches it per left row.
			// The probe carries the search's log factor — a hash probe is
			// O(1), so merge only wins when the left (probe) side is small
			// relative to the hash build+probe work it avoids.
			joinWork = r.Rows*cMergeRow + l.Rows*cMergeRow*math.Log2(math.Max(r.Rows, 2))
		}
		cost := l.Cost + r.Cost + joinWork + rows*cEmitRow
		return Estimate{Rows: rows, Cost: cost}

	case *core.GroupBy:
		in := e.Estimate(x.Input)
		groups := e.distinctOf(x.GroupCols, x.Input, in.Rows)
		return Estimate{Rows: groups, Cost: in.Cost + in.Rows*cGroupRow}

	case *core.AggOp:
		in := e.Estimate(x.Input)
		return Estimate{Rows: 1, Cost: in.Cost + in.Rows*cGroupRow}

	case *core.OrderBy:
		in := e.Estimate(x.Input)
		if x.Elided {
			// The input already provides the order; the node is a marker.
			return Estimate{Rows: in.Rows, Cost: in.Cost}
		}
		return Estimate{Rows: in.Rows, Cost: in.Cost + sortCost(in.Rows)}

	case *core.UnionAll:
		var out Estimate
		for _, c := range x.Inputs {
			est := e.Estimate(c)
			out.Rows += est.Rows
			out.Cost += est.Cost
		}
		return out

	case *core.Apply:
		outer := e.Estimate(x.Outer)
		inner := e.Estimate(x.Inner)
		innerRows := inner.Rows
		execs := outer.Rows
		if len(core.OuterRefsIn(x.Inner)) == 0 {
			// Uncorrelated inners are cached across the outer loop.
			execs = 1
		}
		rows := outer.Rows * math.Max(innerRows, 1)
		if _, isExists := x.Inner.(*core.Exists); isExists {
			rows = outer.Rows * 0.5 // semijoin-style selectivity
		}
		return Estimate{Rows: rows, Cost: outer.Cost + execs*inner.Cost + rows*cEmitRow}

	case *core.Exists:
		in := e.Estimate(x.Input)
		return Estimate{Rows: 1, Cost: in.Cost}

	case *core.GApply:
		return e.estimateGApply(x)

	default:
		var out Estimate
		for _, c := range n.Children() {
			est := e.Estimate(c)
			out.Rows += est.Rows
			out.Cost += est.Cost
		}
		return out
	}
}

// estimateGApply implements §4.4: uniform groups, per-group query costed
// once at the average group size and multiplied by the group count.
func (e *Estimator) estimateGApply(g *core.GApply) Estimate {
	outer := e.Estimate(g.Outer)
	groups := e.distinctOf(g.GroupCols, g.Outer, outer.Rows)
	avgGroup := 1.0
	if groups > 0 {
		avgGroup = outer.Rows / groups
	}

	// Cost the per-group query on a copy: mutating e.groupRows in place
	// would race when concurrent queries share the optimizer's estimator.
	sub := *e
	sub.groupRows = avgGroup
	perGroup := sub.Estimate(g.Inner)

	// An outer in group order — from an index, or from the enforcer sort
	// a sort partitioning lowers to, which the outer's cost already
	// prices — is cut into runs in one linear pass; any other is hashed.
	partition := outer.Rows * cHashRow
	if core.GApplyOuterOrdered(g) {
		partition = outer.Rows * cFilterRow
	}
	return Estimate{
		Rows: groups * math.Max(perGroup.Rows, 1),
		Cost: outer.Cost + partition + groups*perGroup.Cost,
	}
}

// distinctOf estimates the distinct count of a column combination.
func (e *Estimator) distinctOf(cols []*core.ColRef, input core.Node, rows float64) float64 {
	d := 1.0
	for _, c := range cols {
		d *= e.Stats.ColumnDistinct(c.Table, c.Name, rows)
	}
	if d > rows && rows > 0 {
		d = rows
	}
	if d < 1 {
		d = 1
	}
	return d
}

// selectivity estimates the fraction of rows passing a predicate given
// the (already-estimated) input cardinality. Taking rows as a number
// rather than re-estimating the input subtree keeps Estimate linear in
// plan size.
func (e *Estimator) selectivity(cond core.Expr, rows float64) float64 {
	if cond == nil {
		return 1
	}
	switch x := cond.(type) {
	case *core.And:
		s := 1.0
		for _, o := range x.Ops {
			s *= e.selectivity(o, rows)
		}
		return s
	case *core.Or:
		s := 0.0
		for _, o := range x.Ops {
			oi := e.selectivity(o, rows)
			s = s + oi - s*oi
		}
		return s
	case *core.Not:
		return clampSel(1 - e.selectivity(x.Op, rows))
	case *core.Cmp:
		col, lit, op := core.CmpColLit(x)
		if col == nil {
			// col-to-col or computed comparison.
			if x.Op == "=" {
				return 0.1
			}
			return 1.0 / 3
		}
		switch op {
		case "=":
			return clampSel(1 / e.Stats.ColumnDistinct(col.Table, col.Name, rows))
		case "<>":
			return clampSel(1 - 1/e.Stats.ColumnDistinct(col.Table, col.Name, rows))
		default:
			return e.Stats.RangeSelectivity(col.Table, col.Name, op, lit)
		}
	default:
		return 0.5
	}
}

// windowSelectivity estimates the fraction of a table an index scan's
// bounds select. An equality window is one key: 1/ndv. A range window
// is the interpolated distance between its bounds — not the product of
// two one-sided selectivities, which for [17, 17] estimated 1 241 of
// 40 000 rows where 80 qualify.
func (e *Estimator) windowSelectivity(x *core.IndexScan) float64 {
	if !x.HasLo && !x.HasHi {
		return 1
	}
	col := x.Cols[0]
	if equalityWindow(x) {
		return clampSel(1 / e.Stats.ColumnDistinct(x.Table, col, float64(e.Stats.TableRows(x.Table))))
	}
	sel := 1.0
	if x.HasLo {
		op := ">"
		if x.LoIncl {
			op = ">="
		}
		sel = e.Stats.RangeSelectivity(x.Table, col, op, x.Lo)
	}
	if x.HasHi {
		op := "<"
		if x.HiIncl {
			op = "<="
		}
		hi := e.Stats.RangeSelectivity(x.Table, col, op, x.Hi)
		if _, ok := e.Stats.interpolable(x.Table, col); ok && x.HasLo {
			// Both sides interpolate over one [min, max]:
			// P(lo ≤ v ≤ hi) = P(v ≥ lo) + P(v ≤ hi) − 1.
			sel += hi - 1
		} else {
			sel *= hi
		}
	}
	return clampSel(sel)
}

// equalityWindow reports whether an index scan's bounds select one key.
func equalityWindow(x *core.IndexScan) bool {
	if !x.HasLo || !x.HasHi || !x.LoIncl || !x.HiIncl {
		return false
	}
	c, ok := types.Compare(x.Lo, x.Hi)
	return ok && c == 0
}

func sortCost(rows float64) float64 {
	if rows < 2 {
		return cSortRow
	}
	return rows * math.Log2(rows) * cSortRow
}
