// Package oracle is a reference interpreter for the logical algebra in
// internal/core: the independent result the executor is checked
// against. It is deliberately naive. Every operator materializes its
// input as a []types.Row and recurses; joins are nested loops, grouping
// sorts and scans, subqueries re-evaluate per outer row, and values are
// compared only through types.Compare. It reads no physical hint (join
// method, partition strategy, elided sorts, probed indexes) and shares
// no machinery with internal/exec: no spool, no index run, no order-key
// encoding, no hashing, no parallelism. An elided sort, an index seek or
// a merge probe that returns the wrong rows therefore cannot agree with
// it by construction.
//
// Only tests use it; it is too slow for anything else.
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Eval evaluates plan over the tables of cat and returns its rows.
func Eval(plan core.Node, cat *storage.Catalog) ([]types.Row, error) {
	r, err := eval(plan, &env{cat: cat})
	return r.rows, err
}

// rel is an evaluated relation. ties is nil unless the rows come out of
// an OrderBy (through order-preserving Selects and Projects): then
// ties[i] == ties[j] exactly when rows i and j have equal sort keys, and
// equal ids are adjacent.
type rel struct {
	rows []types.Row
	ties []int
}

// env is the evaluation scope: the catalog, the rows bound to GApply
// group variables, and the outer rows of enclosing Applies (and
// subquery expressions), innermost last.
type env struct {
	cat    *storage.Catalog
	groups map[string][]types.Row
	outer  []frame
}

type frame struct {
	sc  *scope
	row types.Row
}

// scope is the schema expressions over one operator's input rows
// resolve column names against, memoizing each reference's ordinal.
type scope struct {
	sch  *schema.Schema
	ords map[*core.ColRef]int
}

func newScope(sch *schema.Schema) *scope {
	return &scope{sch: sch, ords: make(map[*core.ColRef]int)}
}

func (s *scope) resolve(c *core.ColRef) (int, error) {
	if o, ok := s.ords[c]; ok {
		return o, nil
	}
	o, err := s.sch.Resolve(c.Table, c.Name)
	if err == nil {
		s.ords[c] = o
	}
	return o, err
}

func (e *env) withGroup(name string, rows []types.Row) *env {
	groups := make(map[string][]types.Row, len(e.groups)+1)
	for k, v := range e.groups {
		groups[k] = v
	}
	groups[strings.ToLower(name)] = rows
	return &env{cat: e.cat, groups: groups, outer: e.outer}
}

func (e *env) withOuter(sc *scope, row types.Row) *env {
	outer := append(append([]frame{}, e.outer...), frame{sc, row})
	return &env{cat: e.cat, groups: e.groups, outer: outer}
}

func eval(n core.Node, e *env) (rel, error) {
	switch x := n.(type) {
	case *core.Scan:
		tab, err := e.cat.Lookup(x.Table)
		if err != nil {
			return rel{}, err
		}
		return rel{rows: tab.Rows}, nil

	case *core.IndexScan:
		return evalIndexScan(x, e)

	case *core.GroupScan:
		rows, ok := e.groups[strings.ToLower(x.Var)]
		if !ok {
			return rel{}, fmt.Errorf("oracle: group variable %q is not bound", x.Var)
		}
		return rel{rows: rows}, nil

	case *core.Select:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		var out rel
		sc := newScope(x.Input.Schema())
		for i, r := range in.rows {
			ok, err := holds(x.Cond, r, sc, e)
			if err != nil {
				return rel{}, err
			}
			if ok {
				out.rows = append(out.rows, r)
				if in.ties != nil {
					out.ties = append(out.ties, in.ties[i])
				}
			}
		}
		if in.ties != nil && out.ties == nil {
			out.ties = []int{}
		}
		return out, nil

	case *core.Project:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		out := rel{rows: make([]types.Row, len(in.rows)), ties: in.ties}
		sc := newScope(x.Input.Schema())
		for i, r := range in.rows {
			if out.rows[i], err = evalAll(x.Exprs, r, sc, e); err != nil {
				return rel{}, err
			}
		}
		return out, nil

	case *core.Distinct:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		var out rel
		for _, run := range runs(in.rows, allCols(x.Schema().Len())) {
			out.rows = append(out.rows, run[0])
		}
		return out, nil

	case *core.Join:
		return evalJoin(x, e)

	case *core.GroupBy:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		sc := newScope(x.Input.Schema())
		ords, err := resolve(x.GroupCols, sc.sch)
		if err != nil {
			return rel{}, err
		}
		var out rel
		for _, run := range runs(in.rows, ords) {
			row := project(run[0], ords)
			for _, a := range x.Aggs {
				v, err := aggregate(a, run, sc, e)
				if err != nil {
					return rel{}, err
				}
				row = append(row, v)
			}
			out.rows = append(out.rows, row)
		}
		return out, nil

	case *core.AggOp:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		sc := newScope(x.Input.Schema())
		row := types.Row{}
		for _, a := range x.Aggs {
			v, err := aggregate(a, in.rows, sc, e)
			if err != nil {
				return rel{}, err
			}
			row = append(row, v)
		}
		return rel{rows: []types.Row{row}}, nil

	case *core.OrderBy:
		// Elided or not: the oracle always sorts.
		return evalOrderBy(x, e)

	case *core.UnionAll:
		var out rel
		arity := x.Inputs[0].Schema().Len()
		for i, c := range x.Inputs {
			if c.Schema().Len() != arity {
				return rel{}, fmt.Errorf("oracle: union input %d has %d columns, want %d", i, c.Schema().Len(), arity)
			}
			in, err := eval(c, e)
			if err != nil {
				return rel{}, err
			}
			out.rows = append(out.rows, in.rows...)
		}
		return out, nil

	case *core.Apply:
		outer, err := eval(x.Outer, e)
		if err != nil {
			return rel{}, err
		}
		sc := newScope(x.Outer.Schema())
		pad := make(types.Row, x.Inner.Schema().Len())
		var out rel
		for _, r := range outer.rows {
			inner, err := eval(x.Inner, e.withOuter(sc, r))
			if err != nil {
				return rel{}, err
			}
			for _, ir := range inner.rows {
				out.rows = append(out.rows, concat(r, ir))
			}
			if len(inner.rows) == 0 && x.Kind == core.OuterApply {
				out.rows = append(out.rows, concat(r, pad))
			}
		}
		return out, nil

	case *core.Exists:
		in, err := eval(x.Input, e)
		if err != nil {
			return rel{}, err
		}
		if (len(in.rows) > 0) != x.Negated {
			return rel{rows: []types.Row{{}}}, nil
		}
		return rel{}, nil

	case *core.GApply:
		outer, err := eval(x.Outer, e)
		if err != nil {
			return rel{}, err
		}
		ords, err := resolve(x.GroupCols, x.Outer.Schema())
		if err != nil {
			return rel{}, err
		}
		var out rel
		for _, run := range runs(outer.rows, ords) {
			key := project(run[0], ords)
			inner, err := eval(x.Inner, e.withGroup(x.GroupVar, run))
			if err != nil {
				return rel{}, err
			}
			for _, ir := range inner.rows {
				out.rows = append(out.rows, concat(key, ir))
			}
		}
		return out, nil
	}
	return rel{}, fmt.Errorf("oracle: unknown logical operator %T", n)
}

// evalIndexScan reads the heap, keeps the rows the key bounds admit (a
// NULL key satisfies no bound) and, unless the scan is in heap order,
// stably sorts them on the index key.
func evalIndexScan(x *core.IndexScan, e *env) (rel, error) {
	tab, err := e.cat.Lookup(x.Table)
	if err != nil {
		return rel{}, err
	}
	var rows []types.Row
	for _, r := range tab.Rows {
		if x.HasLo || x.HasHi {
			k := r[x.Ords[0]]
			if x.HasLo && !admits(k, x.Lo, x.LoIncl, 1) || x.HasHi && !admits(k, x.Hi, x.HiIncl, -1) {
				continue
			}
		}
		rows = append(rows, r)
	}
	if !x.HeapOrder {
		sort.SliceStable(rows, func(i, j int) bool { return cmpRows(rows[i], rows[j], x.Ords) < 0 })
	}
	return rel{rows: rows}, nil
}

// admits reports whether key k lies on side sign (1: above, -1: below)
// of bound b, or on it when incl.
func admits(k, b types.Value, incl bool, sign int) bool {
	c, ok := types.Compare(k, b)
	return ok && (c == sign || incl && c == 0)
}

func evalJoin(x *core.Join, e *env) (rel, error) {
	left, err := eval(x.Left, e)
	if err != nil {
		return rel{}, err
	}
	right, err := eval(x.Right, e)
	if err != nil {
		return rel{}, err
	}
	sc := newScope(x.Schema())
	lw, rw := x.Left.Schema().Len(), x.Right.Schema().Len()
	row := make(types.Row, lw+rw) // the candidate pair the condition reads
	var out rel
	for _, l := range left.rows {
		copy(row, l)
		matched := false
		for _, r := range right.rows {
			copy(row[lw:], r)
			ok, err := holds(x.Cond, row, sc, e)
			if err != nil {
				return rel{}, err
			}
			if ok {
				out.rows = append(out.rows, concat(l, r))
				matched = true
			}
		}
		if !matched && x.Kind == core.LeftOuterJoin {
			out.rows = append(out.rows, concat(l, make(types.Row, rw)))
		}
	}
	return out, nil
}

func evalOrderBy(x *core.OrderBy, e *env) (rel, error) {
	in, err := eval(x.Input, e)
	if err != nil {
		return rel{}, err
	}
	sc := newScope(x.Input.Schema())
	keys := make([]types.Row, len(in.rows))
	for i, r := range in.rows {
		for _, k := range x.Keys {
			v, err := evalExpr(k.Expr, r, sc, e)
			if err != nil {
				return rel{}, err
			}
			keys[i] = append(keys[i], v)
		}
	}
	cmp := func(a, b types.Row) int {
		for i, k := range x.Keys {
			if c := cmpValues(a[i], b[i]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	perm := make([]int, len(in.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return cmp(keys[perm[i]], keys[perm[j]]) < 0 })
	out := rel{rows: make([]types.Row, len(perm)), ties: make([]int, len(perm))}
	for i, p := range perm {
		out.rows[i] = in.rows[p]
		out.ties[i] = i
		if i > 0 && cmp(keys[perm[i-1]], keys[p]) == 0 {
			out.ties[i] = out.ties[i-1]
		}
	}
	return out, nil
}

// runs stably sorts rows on the columns ords and returns the runs of
// rows with equal values there (NULLs equal to each other). The runs
// come out in key order.
func runs(rows []types.Row, ords []int) [][]types.Row {
	sorted := append([]types.Row{}, rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return cmpRows(sorted[i], sorted[j], ords) < 0 })
	var out [][]types.Row
	for start, i := 0, 1; i <= len(sorted); i++ {
		if i == len(sorted) || cmpRows(sorted[start], sorted[i], ords) != 0 {
			out = append(out, sorted[start:i])
			start = i
		}
	}
	return out
}

// cmpValues is a total order over values built on types.Compare: NULL
// first, comparable values by Compare, and values Compare cannot order
// by kind.
func cmpValues(a, b types.Value) int {
	switch an, bn := a.IsNull(), b.IsNull(); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := types.Compare(a, b); ok {
		return c
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// cmpRows orders rows by cmpValues on the columns ords.
func cmpRows(a, b types.Row, ords []int) int {
	for _, o := range ords {
		if c := cmpValues(a[o], b[o]); c != 0 {
			return c
		}
	}
	return 0
}

func resolve(cols []*core.ColRef, sch *schema.Schema) ([]int, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		o, err := sch.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		ords[i] = o
	}
	return ords, nil
}

func project(r types.Row, ords []int) types.Row {
	out := make(types.Row, len(ords))
	for i, o := range ords {
		out[i] = r[o]
	}
	return out
}

func concat(a, b types.Row) types.Row {
	return append(append(make(types.Row, 0, len(a)+len(b)), a...), b...)
}

// aggregate folds one aggregate over rows. Aggregates skip NULL inputs
// (count(*) counts every row); over no qualifying input count is 0 and
// every other aggregate is NULL. Sums stay integral until a float
// arrives; avg divides the float sum.
func aggregate(a core.AggSpec, rows []types.Row, sc *scope, e *env) (types.Value, error) {
	fn := strings.ToLower(a.Fn)
	switch fn {
	case "count", "sum", "avg", "min", "max":
	default:
		return types.Null, fmt.Errorf("oracle: unknown aggregate %q", a.Fn)
	}
	if a.Star {
		if fn == "count" {
			return types.NewInt(int64(len(rows))), nil
		}
		return types.Null, nil
	}
	if a.Arg == nil {
		return types.Null, fmt.Errorf("oracle: aggregate %s missing argument", a.Fn)
	}
	var vals []types.Value
	for _, r := range rows {
		v, err := evalExpr(a.Arg, r, sc, e)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || a.Distinct && seen(vals, v) {
			continue
		}
		vals = append(vals, v)
	}
	switch fn {
	case "count":
		return types.NewInt(int64(len(vals))), nil
	case "min", "max":
		if len(vals) == 0 {
			return types.Null, nil
		}
		best, want := vals[0], -1
		if fn == "max" {
			want = 1
		}
		for _, v := range vals[1:] {
			if c, ok := types.Compare(v, best); ok && c == want {
				best = v
			}
		}
		return best, nil
	}
	if len(vals) == 0 {
		return types.Null, nil
	}
	var sumI int64
	var sumF float64
	anyFloat := false
	for _, v := range vals {
		switch v.K {
		case types.KindInt:
			sumI += v.I
			sumF += float64(v.I)
		case types.KindFloat:
			anyFloat = true
			sumF += v.F
		default:
			return types.Null, fmt.Errorf("oracle: %s over non-numeric %s", fn, v.K)
		}
	}
	switch {
	case fn == "avg":
		return types.NewFloat(sumF / float64(len(vals))), nil
	case anyFloat:
		return types.NewFloat(sumF), nil
	}
	return types.NewInt(sumI), nil
}

func seen(vals []types.Value, v types.Value) bool {
	for _, w := range vals {
		if c, ok := types.Compare(v, w); ok && c == 0 {
			return true
		}
	}
	return false
}

// holds evaluates a condition as a filter: only True passes (a nil
// condition is true).
func holds(cond core.Expr, row types.Row, sc *scope, e *env) (bool, error) {
	if cond == nil {
		return true, nil
	}
	v, err := evalExpr(cond, row, sc, e)
	return tri(v) == types.True, err
}

func tri(v types.Value) types.Tri {
	if v.IsNull() {
		return types.Unknown
	}
	return types.TriOf(v.Bool())
}

func evalAll(exprs []core.Expr, row types.Row, sc *scope, e *env) (types.Row, error) {
	out := make(types.Row, len(exprs))
	for i, x := range exprs {
		v, err := evalExpr(x, row, sc, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalExpr evaluates a scalar expression against a row of scope sc,
// walking the expression tree and resolving column names as it goes.
func evalExpr(x core.Expr, row types.Row, sc *scope, e *env) (types.Value, error) {
	switch x := x.(type) {
	case *core.ColRef:
		o, err := sc.resolve(x)
		if err != nil {
			return types.Null, err
		}
		return row[o], nil

	case *core.OuterRef:
		for i := len(e.outer) - 1; i >= 0; i-- {
			f := e.outer[i]
			if o, err := f.sc.sch.Resolve(x.Table, x.Name); err == nil {
				return f.row[o], nil
			}
		}
		return types.Null, fmt.Errorf("oracle: outer reference %s does not resolve in any enclosing scope", x)

	case *core.Lit:
		return x.V, nil

	case *core.BinOp:
		a, b, err := evalPair(x.L, x.R, row, sc, e)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case "+":
			return types.Add(a, b)
		case "-":
			return types.Sub(a, b)
		case "*":
			return types.Mul(a, b)
		case "/":
			return types.Div(a, b)
		}
		return types.Null, fmt.Errorf("oracle: unknown arithmetic operator %q", x.Op)

	case *core.Cmp:
		a, b, err := evalPair(x.L, x.R, row, sc, e)
		if err != nil {
			return types.Null, err
		}
		c, ok := types.Compare(a, b)
		if !ok {
			return types.Unknown.Value(), nil
		}
		switch x.Op {
		case "=":
			return types.TriOf(c == 0).Value(), nil
		case "<>", "!=":
			return types.TriOf(c != 0).Value(), nil
		case "<":
			return types.TriOf(c < 0).Value(), nil
		case "<=":
			return types.TriOf(c <= 0).Value(), nil
		case ">":
			return types.TriOf(c > 0).Value(), nil
		case ">=":
			return types.TriOf(c >= 0).Value(), nil
		}
		return types.Null, fmt.Errorf("oracle: unknown comparison %q", x.Op)

	case *core.And:
		acc := types.True
		for _, op := range x.Ops {
			if acc == types.False {
				break
			}
			v, err := evalExpr(op, row, sc, e)
			if err != nil {
				return types.Null, err
			}
			acc = acc.And(tri(v))
		}
		return acc.Value(), nil

	case *core.Or:
		acc := types.False
		for _, op := range x.Ops {
			if acc == types.True {
				break
			}
			v, err := evalExpr(op, row, sc, e)
			if err != nil {
				return types.Null, err
			}
			acc = acc.Or(tri(v))
		}
		return acc.Value(), nil

	case *core.Not:
		v, err := evalExpr(x.Op, row, sc, e)
		if err != nil {
			return types.Null, err
		}
		return tri(v).Not().Value(), nil

	case *core.Func:
		return evalFunc(x, row, sc, e)

	case *core.ScalarSubquery:
		r, err := eval(x.Plan, e.withOuter(sc, row))
		switch {
		case err != nil:
			return types.Null, err
		case len(r.rows) > 1:
			return types.Null, fmt.Errorf("oracle: scalar subquery returned %d rows", len(r.rows))
		case len(r.rows) == 0 || len(r.rows[0]) == 0:
			return types.Null, nil
		}
		return r.rows[0][0], nil

	case *core.ExistsExpr:
		r, err := eval(x.Plan, e.withOuter(sc, row))
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(r.rows) > 0) != x.Negated), nil
	}
	return types.Null, fmt.Errorf("oracle: unknown expression %T", x)
}

func evalPair(l, r core.Expr, row types.Row, sc *scope, e *env) (types.Value, types.Value, error) {
	a, err := evalExpr(l, row, sc, e)
	if err != nil {
		return types.Null, types.Null, err
	}
	b, err := evalExpr(r, row, sc, e)
	return a, b, err
}

func evalFunc(x *core.Func, row types.Row, sc *scope, e *env) (types.Value, error) {
	switch strings.ToLower(x.Name) {
	case "coalesce":
		for _, a := range x.Args {
			v, err := evalExpr(a, row, sc, e)
			if err != nil || !v.IsNull() {
				return v, err
			}
		}
		return types.Null, nil
	case "abs":
		if len(x.Args) != 1 {
			return types.Null, fmt.Errorf("oracle: abs takes one argument")
		}
		v, err := evalExpr(x.Args[0], row, sc, e)
		if err != nil || v.IsNull() {
			return types.Null, err
		}
		switch {
		case v.K == types.KindInt && v.I < 0:
			return types.NewInt(-v.I), nil
		case v.K == types.KindFloat && v.F < 0:
			return types.NewFloat(-v.F), nil
		case v.K == types.KindInt, v.K == types.KindFloat:
			return v, nil
		}
		return types.Null, fmt.Errorf("oracle: abs of %s", v.K)
	}
	return types.Null, fmt.Errorf("oracle: unknown function %q", x.Name)
}
