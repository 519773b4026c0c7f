package experiments

import (
	"fmt"
	"time"

	"gapplydb"
	"gapplydb/xmlpub"
)

// SweepPoint is one parameter setting of a rule's benchmark query.
type SweepPoint struct {
	Param   string
	Without time.Duration // rule disabled
	With    time.Duration // rule enabled (forced for cost-based rules)
}

// Benefit is the paper's metric: elapsed without the rule ÷ with it.
func (p SweepPoint) Benefit() float64 { return Ratio(p.Without, p.With) }

// Table1Row aggregates one rule's sweep the way Table 1 reports it.
type Table1Row struct {
	RuleClass string
	Rule      string
	Points    []SweepPoint
}

// Max is the best benefit across the sweep.
func (r Table1Row) Max() float64 {
	m := 0.0
	for _, p := range r.Points {
		if b := p.Benefit(); b > m {
			m = b
		}
	}
	return m
}

// Avg is the mean benefit across the sweep (losses included).
func (r Table1Row) Avg() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range r.Points {
		s += p.Benefit()
	}
	return s / float64(len(r.Points))
}

// AvgOverWins is the mean benefit across the points where the rule
// actually lowered cost (benefit > 1).
func (r Table1Row) AvgOverWins() float64 {
	s, n := 0.0, 0
	for _, p := range r.Points {
		if b := p.Benefit(); b > 1 {
			s += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// RuleSweep is one Table 1 row's experiment: the rule, and the
// parameterized statements its benefit is measured over.
type RuleSweep struct {
	Class, Rule string // Table 1's row labels
	RuleName    string // the optimizer's name for the rule (WithoutRule, ForceRule)
	points      []sweepQuery
}

type sweepQuery struct {
	param string
	query string
	// extraOpts apply to both arms (e.g. keeping GApply alive by
	// disabling the groupby conversion while measuring projection).
	extraOpts []gapplydb.QueryOption
}

// forced reports whether the rule is cost-based and must be forced in
// the "with" arm to measure its effect across the whole sweep.
func (r RuleSweep) forced() bool {
	switch r.RuleName {
	case "group-selection-exists", "group-selection-aggregate", "invariant-grouping":
		return true
	}
	return false
}

// Table1Sweeps returns every rule sweep in Table 1's row order.
func Table1Sweeps() []RuleSweep {
	selQ := func(x float64) string {
		return fmt.Sprintf(`select gapply(select p_name, p_retailprice from g where p_retailprice > %g)
			from partsupp, part where ps_partkey = p_partkey
			group by ps_suppkey : g`, x)
	}
	projQ := map[string]string{
		"2 tables (9 cols)": `select gapply(select p_name, p_retailprice, null from g
				union all select null, null, avg(p_retailprice) from g)
			from partsupp, part where ps_partkey = p_partkey
			group by ps_suppkey : g`,
		"3 tables (13 cols)": `select gapply(select p_name, p_retailprice, null from g
				union all select null, null, avg(p_retailprice) from g)
			from partsupp, part, supplier
			where ps_partkey = p_partkey and ps_suppkey = s_suppkey
			group by ps_suppkey : g`,
		"4 tables (16 cols)": `select gapply(select p_name, p_retailprice, null from g
				union all select null, null, avg(p_retailprice) from g)
			from partsupp, part, supplier, nation
			where ps_partkey = p_partkey and ps_suppkey = s_suppkey and s_nationkey = n_nationkey
			group by ps_suppkey : g`,
	}
	gbQ := func(cols string) string {
		return fmt.Sprintf(`select gapply(select avg(p_retailprice), min(p_retailprice),
				max(p_retailprice), count(*) from g)
			from partsupp, part where ps_partkey = p_partkey
			group by %s : g`, cols)
	}
	invQ := func(x float64) string {
		return fmt.Sprintf(`select gapply(select s_name, p_name, p_retailprice from g
				where p_retailprice = (select min(p_retailprice) from g))
			from partsupp, part, supplier
			where ps_partkey = p_partkey and ps_suppkey = s_suppkey and p_retailprice > %g
			group by s_suppkey : g`, x)
	}
	// The price domain is 900.00..2099.00 (dbgen's polynomial);
	// thresholds below sweep selectivity from ~100% down to ~1%.
	return []RuleSweep{
		{
			Class: "Basic Rules", Rule: "Placing Selection Before GApply", RuleName: "selection-before-gapply",
			points: []sweepQuery{
				{param: "sel≈100%", query: selQ(900)},
				{param: "sel≈50%", query: selQ(1500)},
				{param: "sel≈10%", query: selQ(1980)},
				{param: "sel≈5%", query: selQ(2040)},
				{param: "sel≈1%", query: selQ(2087)},
			},
		},
		{
			Class: "Basic Rules", Rule: "Placing Projection Before GApply", RuleName: "projection-before-gapply",
			points: []sweepQuery{
				{param: "2 tables (9 cols)", query: projQ["2 tables (9 cols)"]},
				{param: "3 tables (13 cols)", query: projQ["3 tables (13 cols)"]},
				{param: "4 tables (16 cols)", query: projQ["4 tables (16 cols)"]},
			},
		},
		{
			Class: "Basic Rules", Rule: "Converting GApply To groupby", RuleName: "gapply-to-groupby",
			points: []sweepQuery{
				{param: "group by suppkey", query: gbQ("ps_suppkey")},
				{param: "group by size", query: gbQ("p_size")},
				{param: "group by suppkey,size", query: gbQ("ps_suppkey, p_size")},
			},
		},
		{
			Class: "Group Selection", Rule: "Exists", RuleName: "group-selection-exists",
			points: existsSweep(),
		},
		{
			// Both arms disable projection pruning so the sweep isolates
			// what this rule changes: materializing whole groups versus a
			// pipelined sum/count per group (§4.2's memory argument).
			Class: "Group Selection", Rule: "Aggregate Selection", RuleName: "group-selection-aggregate",
			points: aggSelSweep(),
		},
		{
			// Isolated from projection pruning for the same reason: the
			// rule's gain is partitioning narrower pre-join rows and
			// joining per-group results instead of raw rows (§4.3).
			Class: "GApply and Joins", Rule: "Invariant Grouping", RuleName: "invariant-grouping",
			points: []sweepQuery{
				{param: "filter 0%", query: invQ(900), extraOpts: noPrune()},
				{param: "filter 50%", query: invQ(1500), extraOpts: noPrune()},
				{param: "filter 90%", query: invQ(1980), extraOpts: noPrune()},
			},
		},
	}
}

func existsSweep() []sweepQuery {
	var out []sweepQuery
	for _, x := range []struct {
		label string
		th    float64
	}{
		{"all groups qualify", 950},
		{"most qualify", 1800},
		{"some qualify", 2050},
		{"few qualify", 2095},
	} {
		q := xmlpub.ExpensiveSuppliers(x.th).GApplySQL()
		out = append(out, sweepQuery{param: x.label, query: q})
	}
	return out
}

func aggSelSweep() []sweepQuery {
	var out []sweepQuery
	for _, x := range []struct {
		label string
		th    float64
	}{
		{"all groups qualify", 900},
		{"~half qualify", 1495},
		{"few qualify", 1560},
	} {
		q := xmlpub.RichSuppliers(x.th).GApplySQL()
		out = append(out, sweepQuery{param: x.label, query: q, extraOpts: noPrune()})
	}
	return out
}

// noPrune disables projection pruning in both arms of a sweep.
func noPrune() []gapplydb.QueryOption {
	return []gapplydb.QueryOption{gapplydb.WithoutRule("projection-before-gapply")}
}

// Measure times every point of the sweep with the rule off and on.
func (r RuleSweep) Measure(db *gapplydb.Database) (Table1Row, error) {
	row := Table1Row{RuleClass: r.Class, Rule: r.Rule}
	for _, pt := range r.points {
		both := pt.extraOpts
		if r.RuleName == "projection-before-gapply" {
			// Keep the GApply alive in both arms: converting it to a
			// groupby would short-circuit the projection measurement.
			both = append(both[:len(both):len(both)], gapplydb.WithoutRule("gapply-to-groupby"))
		}
		withoutOpts := append([]gapplydb.QueryOption{gapplydb.WithoutRule(r.RuleName)}, both...)
		withOpts := append([]gapplydb.QueryOption{}, both...)
		if r.forced() {
			withOpts = append(withOpts, gapplydb.ForceRule(r.RuleName))
		}
		tw, _, err := timeQuery(db, pt.query, withoutOpts...)
		if err != nil {
			return Table1Row{}, err
		}
		tg, _, err := timeQuery(db, pt.query, withOpts...)
		if err != nil {
			return Table1Row{}, err
		}
		row.Points = append(row.Points, SweepPoint{Param: pt.param, Without: tw, With: tg})
	}
	return row, nil
}
