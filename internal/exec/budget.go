package exec

import (
	"fmt"
	"sync/atomic"
)

// Budget caps the resources one query execution may consume. A Budget is
// shared by every Context forked for the query (parallel GApply workers
// charge the same meters), so all accounting is atomic. The zero value
// of each limit means unlimited; the wall-clock limit is carried by the
// deadline on Context.Ctx rather than here.
type Budget struct {
	// MaxOutputRows caps how many rows the root of the plan may emit.
	MaxOutputRows int64
	// MaxPartitionBytes caps the total footprint (types.Row.Bytes) of
	// the outer rows GApply's partition phase takes in, under every
	// partition strategy, charged row by row in arrival order. A group is
	// a view of the outer's own rows rather than a copy, so for a hash or
	// sort partition the meter counts the rows the phase keeps alive, the
	// engine's dominant memory consumer on groupwise plans. A streaming
	// GApply (over an outer already in group-key order) holds only its
	// open group, yet is charged for every row on arrival all the same:
	// the meter is cumulative, so one budget caps a query's outer volume
	// whichever way the executor runs it.
	MaxPartitionBytes int64

	partitionBytes atomic.Int64
}

// chargePartition adds n bytes to the materialized-partition meter and
// returns a *ResourceError naming the operator when the budget is blown.
// operator renders the name; it runs only then, so charging a row costs
// no plan rendering.
func (b *Budget) chargePartition(n int64, operator func() string) error {
	if b == nil {
		return nil
	}
	used := b.partitionBytes.Add(n)
	if b.MaxPartitionBytes > 0 && used > b.MaxPartitionBytes {
		return &ResourceError{Limit: LimitPartitionBytes, Operator: operator(), Max: b.MaxPartitionBytes, Used: used}
	}
	return nil
}

// Limit identifiers for ResourceError.Limit.
const (
	LimitOutputRows     = "max-output-rows"
	LimitPartitionBytes = "max-partition-bytes"
)

// ResourceError reports a query killed for exceeding its resource
// budget: which limit, at which operator, and by how much. It is a
// typed error so servers can distinguish budget kills from genuine
// failures (errors.As) and surface the offending operator.
type ResourceError struct {
	// Limit is the exceeded budget dimension (LimitOutputRows or
	// LimitPartitionBytes).
	Limit string
	// Operator is a compact description of the plan operator that blew
	// the budget (the same shape the optimizer trace and EXPLAIN use).
	Operator string
	// Max is the configured limit; Used is the consumption observed when
	// the limit tripped.
	Max, Used int64
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("exec: resource budget exceeded: %s = %d (limit %d) at %s", e.Limit, e.Used, e.Max, e.Operator)
}
