package experiments

// SpoolQueries returns the join-heavy per-group plans that exercise the
// invariant-subtree spool: each joins the group variable against a base
// table, so after selection pushdown the base-table side is
// group-invariant, and without spooling it is re-scanned (and the join
// table rebuilt) for every group. They are part of the evaluation suite,
// so the differential and instrumentation batteries cover them.
func SpoolQueries() []SuiteQuery {
	return []SuiteQuery{
		{Name: "spool/Q2j", SQL: `select gapply(select p_name, p_retailprice from g, part
				where ps_partkey = p_partkey and p_retailprice > 1200)
			from partsupp group by ps_suppkey : g`},
		{Name: "spool/Q3j", SQL: `select gapply(select p_name, ps_availqty from g, part
				where ps_partkey = p_partkey)
			from partsupp group by ps_suppkey : g`},
		{Name: "spool/Q4j", SQL: `select gapply(select min(p_retailprice), count(*) from g, part
				where ps_partkey = p_partkey and p_size < 30)
			from partsupp group by ps_suppkey : g`},
	}
}
