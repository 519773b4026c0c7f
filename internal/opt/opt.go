// Package opt is the engine's Volcano-style rule-based optimizer. It
// normalizes plans into the annotated-join-tree form §4 assumes,
// applies the paper's always-beneficial GApply rules to a fixpoint,
// decides the cost-based rules (group selection, invariant grouping)
// with the §4.4 cost model, and finally picks physical strategies
// (GApply partitioning, join methods).
//
// Termination follows the paper's argument: every rule either pushes
// GApply down, eliminates it, or adds selections/projections to the
// outer tree — none of which any other rule reverses — so successive
// firing terminates; a generous iteration bound guards programming
// errors.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/rules"
	"gapplydb/internal/stats"
	"gapplydb/internal/storage"
)

// Options controls optimization, primarily for the experiment harness:
// the Table 1 benchmarks disable or force individual rules to measure
// their effect.
type Options struct {
	// DisableRules names rules that must not run.
	DisableRules map[string]bool
	// ForceRules names cost-based rules that fire regardless of cost.
	ForceRules map[string]bool
	// Partition overrides the GApply partitioning strategy; Auto lets
	// the cost model choose.
	Partition core.PartitionHint
	// SkipOptimization returns the bound plan untouched except for
	// physical hints — the "no optimizer" baseline.
	SkipOptimization bool
	// DisableIndexes turns the order-placement and access-path passes
	// off: no IndexScans, no sort elision, no merge joins, no ordered
	// GApply outers, no seeks. The
	// differential harness compares against this baseline; outputs must
	// be byte-identical either way.
	DisableIndexes bool
}

// Fingerprint renders the options in a canonical textual form: equal
// option sets — however the maps were populated — produce equal strings.
// The statement plan cache keys on it, because every field here changes
// what plan compilation produces.
func (o Options) Fingerprint() string {
	names := func(m map[string]bool) string {
		on := make([]string, 0, len(m))
		for n, v := range m {
			if v {
				on = append(on, n)
			}
		}
		sort.Strings(on)
		return strings.Join(on, ",")
	}
	return fmt.Sprintf("disable=%s;force=%s;partition=%d;skip=%t;noidx=%t",
		names(o.DisableRules), names(o.ForceRules), o.Partition, o.SkipOptimization, o.DisableIndexes)
}

// Optimizer rewrites logical plans.
type Optimizer struct {
	cat *storage.Catalog
	est *stats.Estimator
}

// New builds an optimizer over a catalog with collected statistics.
func New(cat *storage.Catalog, st *stats.Stats) *Optimizer {
	return &Optimizer{cat: cat, est: stats.NewEstimator(st)}
}

// maxPasses bounds rule iteration; real plans converge in 2-3 passes.
const maxPasses = 12

// RuleApplication is one entry of the optimizer's trace: a rule that
// matched the plan, whether its rewrite was kept, and — for cost-based
// rules — the cost comparison that decided it. Table 1's "which rule
// helped" experiments read these instead of inferring rule activity from
// timings.
type RuleApplication struct {
	// Rule is the rule identifier (see gapplydb.RuleNames).
	Rule string
	// Pass is the 1-based optimization pass the rule fired in.
	Pass int
	// CostBased marks rules decided by the §4.4 cost model.
	CostBased bool
	// Forced marks cost-based rules applied regardless of cost.
	Forced bool
	// Accepted reports whether the rewrite was kept.
	Accepted bool
	// CostBefore/CostAfter are the cost model's verdict, set only for
	// cost-based (non-forced) rules.
	CostBefore, CostAfter float64
	// Before/After are compact plan-shape summaries (core.Summary).
	Before, After string
}

// Optimize rewrites the plan under the given options.
func (o *Optimizer) Optimize(plan core.Node, opts Options) core.Node {
	out, _ := o.OptimizeTraced(plan, opts)
	return out
}

// OptimizeTraced rewrites the plan and records every rule application —
// accepted or rejected — in optimization order. The trace is nil when
// optimization is skipped and empty when no rule matched.
func (o *Optimizer) OptimizeTraced(plan core.Node, opts Options) (core.Node, []RuleApplication) {
	if opts.SkipOptimization {
		return o.physical(plan, opts), nil
	}
	ctx := &rules.Context{Catalog: o.cat}
	enabled := func(r rules.Rule) bool { return !opts.DisableRules[r.Name()] }
	costBased := rules.CostBasedNames()
	var trace []RuleApplication

	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, r := range rules.All() {
			if !enabled(r) {
				continue
			}
			candidate, fired := r.Apply(plan, ctx)
			if !fired {
				continue
			}
			entry := RuleApplication{
				Rule:      r.Name(),
				Pass:      pass + 1,
				CostBased: costBased[r.Name()],
				Forced:    costBased[r.Name()] && opts.ForceRules[r.Name()],
				Before:    core.Summary(plan),
				After:     core.Summary(candidate),
			}
			if entry.CostBased && !entry.Forced {
				// Keep the rewrite only when the cost model prefers it.
				entry.CostBefore = o.est.Estimate(plan).Cost
				entry.CostAfter = o.est.Estimate(candidate).Cost
				if entry.CostAfter >= entry.CostBefore {
					trace = append(trace, entry)
					continue
				}
			}
			entry.Accepted = true
			trace = append(trace, entry)
			plan = candidate
			changed = true
		}
		if !changed {
			break
		}
	}
	return o.physical(plan, opts), trace
}

// physical assigns physical strategies: the GApply partitioning (hash vs
// sort, §3's two Partition-phase implementations) and join methods, then
// the order-placement and access-path passes. The ordering between the two halves is a
// correctness property, not a convenience: partitioning and join-method
// decisions are made over index-free plans, so enabling indexes can
// never flip hash↔sort or change which rows flow where — it only swaps
// access paths and removes sort work inside the shape already chosen.
// That is what keeps indexes-on and indexes-off outputs byte-identical.
func (o *Optimizer) physical(plan core.Node, opts Options) core.Node {
	plan = core.Transform(plan, func(n core.Node) core.Node {
		switch x := n.(type) {
		case *core.GApply:
			if x.Partition != core.PartitionAuto {
				return n
			}
			hint := opts.Partition
			if hint == core.PartitionAuto {
				hash := *x
				hash.Partition = core.PartitionHash
				srt := *x
				srt.Partition = core.PartitionSort
				if o.est.Estimate(&srt).Cost < o.est.Estimate(&hash).Cost {
					hint = core.PartitionSort
				} else {
					hint = core.PartitionHash
				}
			}
			cp := *x
			cp.Partition = hint
			return &cp
		case *core.Join:
			if x.Method != core.JoinAuto {
				return n
			}
			cp := *x
			if len(x.EquiPairs()) > 0 {
				cp.Method = core.JoinHash
			} else {
				cp.Method = core.JoinNestedLoops
			}
			return &cp
		default:
			return n
		}
	})
	if !opts.DisableIndexes {
		plan = o.placeOrder(plan)
		plan = o.placeSeeks(plan)
	}
	return plan
}

// placeOrder is the order-placement pass: it finds the plan's
// interesting orders — ORDER BY keys, a hash join's right equi-key, a
// sort-partitioned GApply's group columns — and asks the rules substrate
// (rules.ProvideOrdering) to rewrite the subtree below each into one
// that delivers the order from an ordered index. Every rewrite is
// output-preserving by construction (stable-sorted index runs equal the
// stable sorts they replace), so acceptance is purely about cost:
//   - OrderBy: elide the sort whenever the input can provide the exact
//     ordering — strictly less work, no cost check needed.
//   - Join: a merge alternative replaces hash only when the cost model
//     prefers it (the emitted rows are identical either way).
//   - GApply (sort partitioning, already chosen): an ordered outer turns
//     the partitioning sort into a linear run cut — again strictly less
//     work. The hash-vs-sort choice itself happened before this pass and
//     is never revisited.
func (o *Optimizer) placeOrder(plan core.Node) core.Node {
	return core.Transform(plan, func(n core.Node) core.Node {
		switch x := n.(type) {
		case *core.OrderBy:
			if x.Elided {
				return n
			}
			want, ok := core.RequiredOrdering(x.Keys, x.Input.Schema())
			if !ok {
				return n
			}
			in, ok := rules.ProvideOrdering(x.Input, want, o.cat)
			if !ok {
				return n
			}
			return &core.OrderBy{Input: in, Keys: x.Keys, Elided: true}
		case *core.Join:
			if x.Method != core.JoinHash {
				return n
			}
			pairs := x.EquiPairs()
			if len(pairs) != 1 {
				// Multi-key merge would need a composite index probe; the
				// single-key case is the paper's sort/merge sweet spot.
				return n
			}
			want, ok := core.CanonOrderedCol(pairs[0].Right, x.Right.Schema(), false)
			if !ok {
				return n
			}
			right, ok := rules.ProvideOrdering(x.Right, []core.OrderedCol{want}, o.cat)
			if !ok {
				return n
			}
			merge := &core.Join{Left: x.Left, Right: right, Kind: x.Kind, Cond: x.Cond, Method: core.JoinMerge}
			if o.est.Estimate(merge).Cost < o.est.Estimate(x).Cost {
				return merge
			}
			return n
		case *core.GApply:
			if x.Partition != core.PartitionSort || core.GApplyOuterOrdered(x) {
				return n
			}
			sch := x.Outer.Schema()
			want := make([]core.OrderedCol, 0, len(x.GroupCols))
			for _, c := range x.GroupCols {
				oc, ok := core.CanonOrderedCol(c, sch, false)
				if !ok {
					return n
				}
				want = append(want, oc)
			}
			outer, ok := rules.ProvideOrdering(x.Outer, want, o.cat)
			if !ok {
				return n
			}
			cp := *x
			cp.Outer = outer
			return &cp
		default:
			return n
		}
	})
}

// placeSeeks is the access-path pass for selective filters, run after
// placeOrder so order-serving index scans are placed first: a Select
// directly over a heap Scan whose condition bounds a single-column
// indexed key becomes the same Select over a bounded heap-order
// IndexScan, when the cost model prefers reading the window to reading
// the table. The heap-order scan emits exactly the Scan's rows the
// bounds admit, in heap order, and the Select stays on top with every
// conjunct — so the output is the Scan+Select output byte for byte.
// Over a heap already in key order the seek provides that order (the
// sorts above were placed already; a GApply above streams its groups);
// otherwise it provides none. Among several indexed keys the cheapest
// seek wins.
func (o *Optimizer) placeSeeks(plan core.Node) core.Node {
	return core.Transform(plan, func(n core.Node) core.Node {
		sel, ok := n.(*core.Select)
		if !ok {
			return n
		}
		scan, ok := sel.Input.(*core.Scan)
		if !ok {
			return n
		}
		best, bestCost := n, o.est.Estimate(n).Cost
		for _, seek := range rules.HeapOrderSeeks(scan, sel.Cond, o.cat) {
			cand := &core.Select{Input: seek, Cond: sel.Cond}
			if c := o.est.Estimate(cand).Cost; c < bestCost {
				best, bestCost = cand, c
			}
		}
		return best
	})
}

// Estimate exposes the cost model for EXPLAIN and the harness.
func (o *Optimizer) Estimate(plan core.Node) stats.Estimate {
	return o.est.Estimate(plan)
}
