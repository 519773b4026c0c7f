// Package options declares a query's settings once. The embedded API
// re-exports the struct as gapplydb.Options; the network server keeps
// one per session, the wire protocol's Query frame carries one, and the
// client, gsql and the replay harness build them. Every layer parses
// text with Set and layers one struct over another with Overlay; the
// wire encoding (internal/wire) is written over the same fields.
package options

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/opt"
	"gapplydb/internal/rules"
	"gapplydb/internal/trace"
)

// Options are one query's settings. A zero field is unset: it inherits
// the setting of the struct it is overlaid on (a server session's), and
// otherwise means the engine default. So a query can raise a setting a
// session leaves at its default, and replace the session's degree,
// budget, rule sets and partition with other values of its own, but it
// cannot put one back to the default: the degree and sampling say
// "default" with -1, every other field's default is its zero, and a
// session's auto partition, empty rule sets and false flags are what a
// query sets by leaving them alone.
type Options struct {
	// The planner's settings: the rules disabled or forced, the GApply
	// partitioning, skipping the optimizer and planning without indexes.
	// Their fingerprint (AppendFingerprint) is the options' part of the
	// statement plan-cache key; no other field changes the plan.
	opt.Options

	// DOP caps GApply's parallel degree: 1 is serial, a negative degree
	// is the engine default (GOMAXPROCS) even over a session's degree.
	DOP int
	// Timeout, MaxOutputRows and MaxPartitionBytes are the query's
	// budget; zero is unlimited. Timeout is the wall-clock deadline,
	// enforced through the execution context, where it composes with
	// any deadline the caller's context has: the earlier one wins and
	// kills the query with context.DeadlineExceeded. MaxOutputRows caps
	// the rows the query may return, MaxPartitionBytes the bytes GApply
	// may take into its partitions — the engine's dominant memory
	// consumer; exceeding either kills the query with a resource error.
	// A server fronting untrusted queries should set all three.
	Timeout           time.Duration
	MaxOutputRows     int64
	MaxPartitionBytes int64
	// NoPlanCache compiles the statement from scratch, neither reading
	// nor filling the statement plan cache.
	NoPlanCache bool
	// Instrument profiles every plan node: actual rows, loops and time.
	// The profile stays in the process that ran the query, so Set has
	// no name for it and the wire does not carry it; only the embedded
	// API (WithInstrumentation) sets it.
	Instrument bool
	// Trace traces the query under this ID; ForceTrace traces it under
	// a fresh one.
	Trace      trace.ID
	ForceTrace bool
	// TraceSampling head-samples the query for tracing with this
	// probability; a negative value never samples, over a server's
	// default too.
	TraceSampling float64
}

// Set parses one setting from its text form, by name. The names, one
// per field but Instrument, and their values:
//
//	dop                  a 32-bit integer; negative is the engine default
//	timeout              a duration (500ms, 2s); off or 0 clears it
//	max_output_rows      an integer >= 0 (0 = unlimited)
//	max_partition_bytes  an integer >= 0 (0 = unlimited)
//	partition            hash, sort or auto
//	disable_rules        rule names, comma-separated; off clears them
//	force_rules          rule names, comma-separated; off clears them
//	no_indexes           on or off (or true/false, 1/0)
//	skip_optimizer       on or off
//	no_plan_cache        on or off
//	trace_id             32 hex digits; off clears it
//	force_trace          on or off
//	trace_sampling       a probability 0..1 (0 never samples); default unsets it
//
// A bad name or value leaves o unchanged. Rule sets are replaced, never
// written in place, so a struct copied from o may keep reading its own.
func (o *Options) Set(name, value string) error {
	bad := func() error { return fmt.Errorf("bad %s %q", name, value) }
	switch strings.ToLower(name) {
	case "dop":
		n, err := strconv.ParseInt(value, 10, 32) // the wire carries 32 bits
		if err != nil {
			return bad()
		}
		o.DOP = int(n)
	case "timeout":
		if value == "off" || value == "0" {
			o.Timeout = 0
			return nil
		}
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return bad()
		}
		o.Timeout = d
	case "max_output_rows":
		return setCount(&o.MaxOutputRows, value, bad)
	case "max_partition_bytes":
		return setCount(&o.MaxPartitionBytes, value, bad)
	case "partition":
		switch strings.ToLower(value) {
		case "", "auto":
			o.Partition = core.PartitionAuto
		case "hash":
			o.Partition = core.PartitionHash
		case "sort":
			o.Partition = core.PartitionSort
		default:
			return fmt.Errorf("bad partition %q (hash, sort or auto)", value)
		}
	case "disable_rules":
		return setRules(&o.DisableRules, value)
	case "force_rules":
		return setRules(&o.ForceRules, value)
	case "no_indexes":
		return setFlag(&o.DisableIndexes, value, bad)
	case "skip_optimizer":
		return setFlag(&o.SkipOptimization, value, bad)
	case "no_plan_cache":
		return setFlag(&o.NoPlanCache, value, bad)
	case "trace_id":
		if value == "off" {
			o.Trace = trace.ID{}
			return nil
		}
		id, err := trace.ParseID(value)
		if err != nil {
			return err
		}
		o.Trace = id
	case "force_trace":
		return setFlag(&o.ForceTrace, value, bad)
	case "trace_sampling":
		if strings.EqualFold(value, "default") {
			o.TraceSampling = 0
			return nil
		}
		p, err := strconv.ParseFloat(value, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return fmt.Errorf("bad trace_sampling %q (0..1 or \"default\")", value)
		}
		if p == 0 {
			p = -1 // never, which a zero field cannot say
		}
		o.TraceSampling = p
	default:
		return fmt.Errorf("unknown option %q", name)
	}
	return nil
}

func setCount(dst *int64, value string, bad func() error) error {
	n, err := strconv.ParseInt(value, 10, 64)
	if err != nil || n < 0 {
		return bad()
	}
	*dst = n
	return nil
}

func setFlag(dst *bool, value string, bad func() error) error {
	switch strings.ToLower(value) {
	case "on":
		*dst = true
	case "off":
		*dst = false
	default:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return bad()
		}
		*dst = b
	}
	return nil
}

// setRules replaces *dst with the comma-separated rule names of value,
// each checked against the optimizer's rules.
func setRules(dst *map[string]bool, value string) error {
	var set map[string]bool
	if value != "off" {
		for _, name := range strings.Split(value, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			if !isRule(name) {
				return fmt.Errorf("unknown rule %q", name)
			}
			set = WithRule(set, name)
		}
	}
	*dst = set
	return nil
}

// Check reports the first setting no Set could have made: a rule name
// the optimizer does not know, or a sampling probability outside 0..1
// other than -1. A decoder of settings from the network checks them.
func (o *Options) Check() error {
	for _, set := range []map[string]bool{o.DisableRules, o.ForceRules} {
		for name := range set {
			if !isRule(name) {
				return fmt.Errorf("unknown rule %q", name)
			}
		}
	}
	if p := o.TraceSampling; p != -1 && !(p >= 0 && p <= 1) {
		return fmt.Errorf("bad trace_sampling %v", p)
	}
	return nil
}

func isRule(name string) bool {
	for _, r := range rules.All() {
		if r.Name() == name {
			return true
		}
	}
	return false
}

// WithRule returns a copy of the rule set with name added: a set may be
// shared by the structs copied from one another, so none is written in
// place.
func WithRule(set map[string]bool, name string) map[string]bool {
	out := maps.Clone(set)
	if out == nil {
		out = map[string]bool{}
	}
	out[name] = true
	return out
}

// Overlay sets on o every field top sets, leaving the others: a server
// session's settings under one query's own, or the options of an
// embedded call in order.
func (o *Options) Overlay(top Options) {
	if len(top.DisableRules) > 0 {
		o.DisableRules = top.DisableRules
	}
	if len(top.ForceRules) > 0 {
		o.ForceRules = top.ForceRules
	}
	over(&o.Partition, top.Partition)
	over(&o.SkipOptimization, top.SkipOptimization)
	over(&o.DisableIndexes, top.DisableIndexes)
	over(&o.DOP, top.DOP)
	over(&o.Timeout, top.Timeout)
	over(&o.MaxOutputRows, top.MaxOutputRows)
	over(&o.MaxPartitionBytes, top.MaxPartitionBytes)
	over(&o.NoPlanCache, top.NoPlanCache)
	over(&o.Instrument, top.Instrument)
	over(&o.Trace, top.Trace)
	over(&o.ForceTrace, top.ForceTrace)
	over(&o.TraceSampling, top.TraceSampling)
}

func over[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}
