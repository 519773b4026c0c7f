// Package coord is the distributed-GApply coordinator: it fronts a
// cluster of worker gapplyd shards that hold hash-partitioned TPC-H
// data (tpch.LoadShard), decides per query whether the plan can run
// sharded with byte-identical output (exchange.Analyze), fans the
// original SQL out to the workers with the plan decisions pinned, and
// gathers the streams back — through an order-preserving merge, a
// single-shard pass-through, or a partial-aggregate combine.
//
// The coordinator also keeps a full local replica (its own Database),
// so any query it cannot prove distributable is simply declined back
// to the serving session, which runs it locally: correctness never
// depends on the analyzer being complete, only on it being sound.
package coord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/exchange"
	"gapplydb/internal/server"
	"gapplydb/internal/types"
	"gapplydb/internal/wire"
)

// Config builds a Coordinator.
type Config struct {
	// DB is the coordinator's full local replica: it plans every query
	// (the shards reproduce its decisions via pins) and executes the
	// ones that stay local.
	DB *gapplydb.Database
	// Shards are the worker gapplyd addresses; shard i of
	// len(Shards) must have been loaded with OpenTPCHShard(sf, i, n).
	Shards []string
	// PoolSize bounds connections per shard (default 2).
	PoolSize int
	// PingInterval enables the pools' background health checks.
	PingInterval time.Duration
	// DialTimeout bounds one dial+handshake (default 5s).
	DialTimeout time.Duration
	// DialOptions apply to every shard connection.
	DialOptions []client.DialOption
}

// Stats counts the coordinator's routing decisions.
type Stats struct {
	// Distributed counts queries claimed and fanned out; Declined
	// counts queries handed back for local execution; Failed counts
	// claimed queries that ended in a shard error.
	Distributed, Declined, Failed int64
}

// fanOut snapshots the last distributed query for `show shards`.
type fanOut struct {
	query    string
	strategy exchange.Strategy
	rows     []int64 // per shard
}

// Coordinator implements server.Distributor over a shard cluster.
type Coordinator struct {
	db     *gapplydb.Database
	layout exchange.Layout
	addrs  []string
	pools  []*client.Pool

	mu    sync.Mutex
	stats Stats
	last  fanOut
}

// New builds a coordinator over an already-open local replica and the
// shard addresses. No connection is dialed until the first query (or
// WaitReady).
func New(cfg Config) (*Coordinator, error) {
	if cfg.DB == nil {
		return nil, errors.New("coord: Config.DB is required")
	}
	if len(cfg.Shards) == 0 {
		return nil, errors.New("coord: at least one shard address is required")
	}
	c := &Coordinator{
		db:     cfg.DB,
		layout: exchange.DefaultTPCH(len(cfg.Shards)),
		addrs:  cfg.Shards,
	}
	for _, addr := range cfg.Shards {
		c.pools = append(c.pools, client.NewPool(client.PoolConfig{
			Addr:         addr,
			Size:         cfg.PoolSize,
			DialTimeout:  cfg.DialTimeout,
			PingInterval: cfg.PingInterval,
			DialOptions:  cfg.DialOptions,
		}))
	}
	return c, nil
}

// Close releases every shard pool.
func (c *Coordinator) Close() error {
	for _, p := range c.pools {
		p.Close()
	}
	return nil
}

// Stats snapshots the routing counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WaitReady blocks until every shard answers a ping (or ctx expires).
// cmd/gapplyd -shard-wait uses it so a coordinator can start before its
// workers finish loading.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	for i, p := range c.pools {
		for {
			err := func() error {
				conn, err := p.Get(ctx)
				if err != nil {
					return err
				}
				defer p.Put(conn)
				return conn.Ping(ctx)
			}()
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("coord: shard %d (%s) not ready: %w", i, c.addrs[i], err)
			}
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return fmt.Errorf("coord: shard %d (%s) not ready: %w", i, c.addrs[i], err)
			}
		}
	}
	return nil
}

// ShardError reports which worker a distributed query died on. It
// unwraps to the shard's own error, so context sentinels (cancelled,
// timeout) and budget errors keep satisfying the caller's errors.Is /
// errors.As checks through the fan-in.
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coord: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// WireCode passes the shard's original error taxonomy through when it
// has one; anything else (a dead connection, a protocol fault) is the
// cluster-level "shard" code naming the failed node in the message.
func (e *ShardError) WireCode() string {
	var se *client.ServerError
	if errors.As(e.Err, &se) && se.Code != "" {
		return se.Code
	}
	return wire.CodeShard
}

// Distribute implements server.Distributor. It claims the query when
// the plan analysis proves a sharded execution reproduces the local
// stream byte for byte, and declines otherwise (nil stream, false).
func (c *Coordinator) Distribute(ctx context.Context, query string, opts server.DistOptions) (server.RowStream, bool, error) {
	if isShowShards(query) {
		return c.statusStream(), true, nil
	}
	plan, rtrace, isExplain, err := c.db.PlanTrace(query)
	if err != nil || isExplain {
		return c.decline()
	}
	cut := exchange.Analyze(plan, c.layout)
	if !cut.Distributed() {
		return c.decline()
	}
	pins, ok := derivePins(cut, rtrace)
	if !ok {
		return c.decline()
	}
	shardOpts := append(pins, c.shardOptions(opts)...)

	var shards []int
	if cut.Strategy == exchange.StrategySingleShard {
		shards = []int{0}
	} else {
		shards = make([]int, len(c.pools))
		for i := range shards {
			shards[i] = i
		}
	}

	ictx, cancel := context.WithCancel(ctx)
	conns, err := c.start(ictx, query, shardOpts, shards)
	if err != nil {
		// Pre-start failure (dead shard, full pool, rejected query):
		// degrade to the local replica rather than failing the query.
		cancel()
		return c.decline()
	}

	g := newGatherStream(c, query, cut, conns, cancel, opts.MaxOutputRows)
	c.mu.Lock()
	c.stats.Distributed++
	c.last = fanOut{query: query, strategy: cut.Strategy, rows: make([]int64, len(c.pools))}
	c.mu.Unlock()
	return g, true, nil
}

func (c *Coordinator) decline() (server.RowStream, bool, error) {
	c.mu.Lock()
	c.stats.Declined++
	c.mu.Unlock()
	return nil, false, nil
}

// shardOptions translates the session's effective options into the
// per-shard query options: timeouts and parallelism pass through, the
// partition-memory budget is apportioned (each shard holds ~1/n of any
// partitioned operator's data), output-row budgets are enforced at the
// coordinator where the global count exists, and the trace ID fans out
// so the shards' spans join the query's one trace tree.
func (c *Coordinator) shardOptions(opts server.DistOptions) []client.QueryOption {
	var out []client.QueryOption
	if opts.Timeout > 0 {
		out = append(out, client.WithTimeout(opts.Timeout))
	}
	if opts.DOP > 0 {
		out = append(out, client.WithDOP(opts.DOP))
	}
	if opts.MaxPartitionBytes > 0 {
		n := int64(len(c.pools))
		out = append(out, client.WithMaxPartitionBytes((opts.MaxPartitionBytes+n-1)/n))
	}
	if opts.TraceID != (gapplydb.TraceID{}) {
		out = append(out, client.WithTraceID(opts.TraceID))
	}
	return out
}

// start opens one connection+query per listed shard. On any failure it
// unwinds everything already started and returns the error.
func (c *Coordinator) start(ctx context.Context, query string, opts []client.QueryOption, shards []int) ([]*shardConn, error) {
	var conns []*shardConn
	for _, i := range shards {
		conn, err := c.pools[i].Get(ctx)
		if err != nil {
			unwind(conns, c)
			return nil, &ShardError{Shard: i, Addr: c.addrs[i], Err: err}
		}
		rows, err := conn.Query(ctx, query, opts...)
		if err != nil {
			c.pools[i].Put(conn)
			unwind(conns, c)
			return nil, &ShardError{Shard: i, Addr: c.addrs[i], Err: err}
		}
		conns = append(conns, &shardConn{shard: i, addr: c.addrs[i], pool: c.pools[i], conn: conn, rows: rows})
	}
	return conns, nil
}

func unwind(conns []*shardConn, c *Coordinator) {
	for _, sc := range conns {
		sc.release()
	}
}

// derivePins turns the analysis plus the optimizer's rule trace into
// the options every shard query carries, so each worker compiles the
// congruent plan. Cost-based rule decisions are what shard-local
// statistics could flip, so each is pinned the way the coordinator
// decided it: accepted → forced, rejected → disabled. A rule both
// accepted and rejected (different match sites) cannot be pinned
// uniformly, so the query stays local; the same goes for traces that
// already carry forced rules (the session never offers pinned queries,
// so this is belt and braces). Sort partitioning is pinned whenever
// GApply survived into the plan — Analyze only distributes all-sort
// plans, and the physical hash-vs-sort choice is likewise cost-based.
func derivePins(cut exchange.Cut, rtrace []gapplydb.RuleApplication) ([]client.QueryOption, bool) {
	force := map[string]bool{}
	disable := map[string]bool{}
	for _, a := range rtrace {
		if !a.CostBased {
			continue
		}
		if a.Forced {
			return nil, false
		}
		if a.Accepted {
			force[a.Rule] = true
		} else {
			disable[a.Rule] = true
		}
	}
	for r := range force {
		if disable[r] {
			return nil, false
		}
	}
	var out []client.QueryOption
	if cut.HasGApply {
		out = append(out, client.WithPartition("sort"))
	}
	if len(force) > 0 {
		out = append(out, client.WithForceRules(sortedKeys(force)...))
	}
	if len(disable) > 0 {
		out = append(out, client.WithDisableRules(sortedKeys(disable)...))
	}
	return out, true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// noteFan records one finished (or abandoned) fan-out's per-shard row
// counts for `show shards`.
func (c *Coordinator) noteFan(query string, srcs []*shardSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last.query != query || len(c.last.rows) == 0 {
		return
	}
	for _, s := range srcs {
		if s.sc.shard < len(c.last.rows) {
			c.last.rows[s.sc.shard] = s.n
		}
	}
}

func (c *Coordinator) noteFailed() {
	c.mu.Lock()
	c.stats.Failed++
	c.mu.Unlock()
}

// isShowShards recognizes the cluster-status meta query (the gsql
// \shards command sends it through the ordinary query path).
func isShowShards(query string) bool {
	q := strings.TrimSpace(query)
	q = strings.TrimSuffix(q, ";")
	return strings.EqualFold(strings.Join(strings.Fields(q), " "), "show shards")
}

// statusStream renders one row per shard: pool health and counters,
// plus the last distributed query's strategy and per-shard row fan-out.
func (c *Coordinator) statusStream() server.RowStream {
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()

	cols := []string{"shard", "addr", "healthy", "idle", "in_use", "dials", "dial_failures", "last_rows", "last_strategy"}
	rows := make([]types.Row, len(c.pools))
	for i, p := range c.pools {
		st := p.Stats()
		var lastRows int64
		if i < len(last.rows) {
			lastRows = last.rows[i]
		}
		strategy := ""
		if last.query != "" {
			strategy = last.strategy.String()
		}
		rows[i] = types.Row{
			types.NewInt(int64(i)), types.NewString(c.addrs[i]), types.NewBool(p.Healthy()),
			types.NewInt(int64(st.Idle)), types.NewInt(int64(st.InUse)), types.NewInt(st.Dials), types.NewInt(st.DialFailures),
			types.NewInt(lastRows), types.NewString(strategy),
		}
	}
	return newStaticStream(cols, rows)
}
