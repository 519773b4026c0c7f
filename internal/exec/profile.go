package exec

import (
	"time"

	"gapplydb/internal/core"
)

// NodeStats is the runtime profile of one plan operator: what EXPLAIN
// ANALYZE prints next to the estimates.
type NodeStats struct {
	// Rows is how many rows the operator produced across all loops.
	Rows int64
	// Opens counts Open calls — the operator's loop count (per-group
	// query operators re-open once per group, apply inners once per
	// outer row or binding version).
	Opens int64
	// Time is cumulative wall time spent inside the operator's Open,
	// Next and Close, children included (inclusive time, like EXPLAIN
	// ANALYZE in mainstream engines). Under parallel GApply the workers'
	// times sum, so a node's Time may exceed the query's elapsed time.
	Time time.Duration
	// SpoolBuilds/SpoolHits/SpoolBytes are set only on a node GApply
	// spooled: how often its materialization was built (once per
	// bgapply.Open) vs. replayed, and the materialization's estimated
	// size. Rows/Opens/Time above then describe the real executions
	// only — replays bypass the probe.
	SpoolBuilds int64
	SpoolHits   int64
	SpoolBytes  int64
}

func (s *NodeStats) add(o NodeStats) {
	s.Rows += o.Rows
	s.Opens += o.Opens
	s.Time += o.Time
	s.SpoolBuilds += o.SpoolBuilds
	s.SpoolHits += o.SpoolHits
	s.SpoolBytes += o.SpoolBytes
}

// Profile collects per-operator runtime statistics for one execution,
// keyed by the logical plan node the iterator was compiled from. Like
// the Context that owns it, a Profile belongs to a single goroutine:
// parallel GApply forks a private Profile per worker and merges each
// task's delta back in range order, exactly as Counters are merged,
// so totals are race-free and identical at every degree of parallelism.
//
// Instrumentation is strictly opt-in: when Context.Prof is nil,
// BuildBatch inserts no probes and execution runs the same iterators as before —
// the disabled path costs nothing.
type Profile struct {
	stats map[core.Node]*NodeStats
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{stats: make(map[core.Node]*NodeStats)}
}

// node returns the stats cell for a plan node, creating it on first use.
func (p *Profile) node(n core.Node) *NodeStats {
	s := p.stats[n]
	if s == nil {
		s = &NodeStats{}
		p.stats[n] = s
	}
	return s
}

// Stats returns the recorded stats for a plan node; the zero value if
// the node never executed (or p is nil).
func (p *Profile) Stats(n core.Node) NodeStats {
	if p == nil {
		return NodeStats{}
	}
	if s := p.stats[n]; s != nil {
		return *s
	}
	return NodeStats{}
}

// wrapBatch instruments a batch iterator compiled from plan node n.
// Rows is advanced by the batch's live-row count — actuals count rows,
// never batches — so EXPLAIN ANALYZE output is identical at every
// degree of parallelism.
func (p *Profile) wrapBatch(n core.Node, it BatchIterator) BatchIterator {
	return &batchProbe{inner: it, stats: p.node(n)}
}

// clear zeroes every cell, keeping the cells the probes point at.
func (p *Profile) clear() {
	for _, s := range p.stats {
		*s = NodeStats{}
	}
}

// snapshot copies the current values, for later delta computation.
func (p *Profile) snapshot() map[core.Node]NodeStats {
	snap := make(map[core.Node]NodeStats, len(p.stats))
	for n, s := range p.stats {
		snap[n] = *s
	}
	return snap
}

// since returns the per-node work done after the snapshot was taken.
func (p *Profile) since(snap map[core.Node]NodeStats) map[core.Node]NodeStats {
	delta := make(map[core.Node]NodeStats, len(p.stats))
	for n, s := range p.stats {
		prev := snap[n] // zero value for nodes first seen after the snapshot
		d := NodeStats{
			Rows: s.Rows - prev.Rows, Opens: s.Opens - prev.Opens, Time: s.Time - prev.Time,
			SpoolBuilds: s.SpoolBuilds - prev.SpoolBuilds,
			SpoolHits:   s.SpoolHits - prev.SpoolHits,
			SpoolBytes:  s.SpoolBytes - prev.SpoolBytes,
		}
		if d != (NodeStats{}) {
			delta[n] = d
		}
	}
	return delta
}

// merge adds a delta (a finished group's work, from a worker's private
// profile) into the profile. Called only from the consuming goroutine,
// mirroring Counters.Add.
func (p *Profile) merge(delta map[core.Node]NodeStats) {
	for n, d := range delta {
		p.node(n).add(d)
	}
}

// batchProbe is the probe's batch twin: one timing sample per batch
// call, Rows advanced by live rows.
type batchProbe struct {
	inner BatchIterator
	stats *NodeStats
}

func (p *batchProbe) Open() error {
	start := time.Now()
	err := p.inner.Open()
	p.stats.Time += time.Since(start)
	p.stats.Opens++
	return err
}

func (p *batchProbe) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := p.inner.NextBatch()
	p.stats.Time += time.Since(start)
	if b != nil {
		p.stats.Rows += int64(b.Len())
	}
	return b, err
}

func (p *batchProbe) Close() error {
	start := time.Now()
	err := p.inner.Close()
	p.stats.Time += time.Since(start)
	return err
}
