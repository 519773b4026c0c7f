package options

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gapplydb/internal/core"
)

// TestSetRejects: a bad name or value is an error and
// leaves the settings as they were; the session's explain mode is gone,
// and instrumentation, whose profile stays in the process, has no name.
func TestSetRejects(t *testing.T) {
	for _, c := range [][2]string{
		{"dop", "many"}, {"dop", "4294967297"}, {"timeout", "-1s"}, {"timeout", "sideways"},
		{"max_output_rows", "-1"}, {"max_partition_bytes", "lots"},
		{"partition", "zigzag"}, {"disable_rules", "no-such-rule"},
		{"force_rules", "invariant-grouping,nope"}, {"no_indexes", "maybe"},
		{"trace_id", "xyz"}, {"trace_sampling", "1.5"}, {"trace_sampling", "NaN"},
		{"explain", "plan"}, {"instrument", "on"}, {"no_such_option", "1"},
	} {
		o := Options{DOP: 3}
		o.DisableRules = map[string]bool{"gapply-to-groupby": true}
		want := o
		if err := o.Set(c[0], c[1]); err == nil {
			t.Errorf("Set(%s, %s) accepted", c[0], c[1])
		}
		if !reflect.DeepEqual(o, want) {
			t.Errorf("Set(%s, %s) changed the settings to %+v", c[0], c[1], o)
		}
	}
}

// TestOverlay: a query's settings override a session's field
// by field; what the query leaves zero, the session's setting fills.
// Sampling 0 is "never", which a zero field cannot say, and "default"
// inherits again.
func TestOverlay(t *testing.T) {
	var session, query Options
	for _, kv := range [][2]string{{"dop", "2"}, {"partition", "sort"}, {"timeout", "1s"}, {"trace_sampling", "0"}} {
		if err := session.Set(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, kv := range [][2]string{{"dop", "-1"}, {"disable_rules", "invariant-grouping"}} {
		if err := query.Set(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	eff := session
	eff.Overlay(query)
	if eff.DOP != -1 || eff.Partition != core.PartitionSort || eff.Timeout != time.Second ||
		!eff.DisableRules["invariant-grouping"] || eff.TraceSampling >= 0 {
		t.Fatalf("overlay: %+v", eff)
	}
	if session.DisableRules != nil || session.DOP != 2 {
		t.Fatalf("overlay wrote through to the session: %+v", session)
	}
	if err := eff.Set("trace_sampling", "default"); err != nil || eff.TraceSampling != 0 {
		t.Fatalf("trace_sampling default: %v, %v", eff.TraceSampling, err)
	}
}

// TestCheck: Check accepts whatever Set makes and rejects the rule
// names and sampling probabilities no Set could have made.
func TestCheck(t *testing.T) {
	var o Options
	for _, kv := range [][2]string{{"disable_rules", "gapply-to-groupby"}, {"force_rules", "invariant-grouping"}, {"trace_sampling", "0"}} {
		if err := o.Set(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Check(); err != nil {
		t.Fatalf("Check of Set's settings: %v", err)
	}
	for name, bad := range map[string]func(*Options){
		"unknown rule": func(o *Options) { o.ForceRules = WithRule(o.ForceRules, "nope") },
		"NaN":          func(o *Options) { o.TraceSampling = math.NaN() },
		"below -1":     func(o *Options) { o.TraceSampling = -2 },
		"above 1":      func(o *Options) { o.TraceSampling = 1.5 },
	} {
		b := o
		bad(&b)
		if b.Check() == nil {
			t.Errorf("%s: Check accepted %+v", name, b)
		}
	}
}
