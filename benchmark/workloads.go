package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gapplydb/xmlpub"
)

// Frozen inputs. A change to any of these changes what every later
// result is compared against, so they are constants, not flags.
const (
	defaultSF = 0.05

	// ordersMaxKey restricts the lineitem ⋈ part view to its first 10 k
	// orders of about 4 rows each: the small-group input GApply's
	// per-group cost shows on.
	ordersMaxKey = 10000

	// hotKeys is the entity_serving hot set. With the point and entity
	// statement per key it fits the engine's 256-entry plan cache; the
	// uniform half of the keys (2 × 500 statements) overflows it.
	hotKeys = 32

	// mixBlock requests hold exactly mixPoint point lookups, mixEntity
	// single-supplier documents and the rest Q2 documents; the seed
	// shuffles inside a block and never changes the mix.
	mixBlock  = 50
	mixPoint  = 30
	mixEntity = 19

	// Open-loop window: requests in flight beyond it wait in the
	// generator, where their wait is counted as lateness, instead of
	// being refused by the server. The pinned server configuration
	// queues 4 beside 2 running, and a slot is released only after the
	// client has seen its response end, so only 4 in flight can never
	// find the queue full.
	openWindow = 4
	openConns  = 2

	// backToBackShare of the open-loop workload's load phase is a closed
	// loop over the same seeded requests, and the gated times and rates
	// are read from it. Arrivals that keep two processors a tenth busy
	// mostly find an idle virtual processor, and waking one is the host's
	// work: a point lookup's median was 0.18 to 0.36 ms depending on the
	// run (0.11 back to back), a one-supplier document's 1.9 to 2.9 ms
	// (1.5), and over ten seeds the open loop's median latency spread 28%
	// of its median, wider than any bound, where the same requests back
	// to back spread 6%. The rate steps take the rest of the phase and
	// report ungated.
	backToBackShare = 1.0 / 3

	// latencyLimitMS is 5 × lat_p95_ms.low measured at the commit that
	// added the benchmark (5.3 ms), rounded up to a whole millisecond.
	latencyLimitMS = 27
)

// rateSteps are the open loop's offered rates in requests per second,
// run in this order. high is a quarter of what the same mix sustains
// back to back (req_per_s, 750 at the commit that added the
// benchmark), not the two thirds the design first asked for: a Q2
// holds both processors for 20 to 40 ms, so at 200 req/s 4 to 8
// arrivals already queue behind each one, and at 400 req/s one run in
// ten fell into a backlog of seconds, which no bound can gate. high is
// the highest rate tried at which ten runs out of ten repeated.
var rateSteps = []struct {
	name string
	rps  float64
}{{"low", 50}, {"mid", 100}, {"high", 200}}

type mode int

const (
	xmlMode     mode = iota // client.QueryXML: the server tags and streams chunks
	rowsTagMode             // client.Query, then a client-side xmlpub.Tagger (the paper's middleware)
	rowsMode                // client.Query, rows rendered as text: no XML at all
)

// class is one kind of request.
type class struct {
	name     string
	mode     mode
	strategy xmlpub.Strategy
	keyed    bool // one statement per supplier key
	flwr     func(key int) *xmlpub.FLWR
	// twin names the statement the traced pass runs beside this one:
	// "dop1" is the same statement at WithDOP(1), "gapply" the GApply
	// translation of a sorted-outer-union request.
	twin string
}

// compile is the client's share of a request: FLWR to SQL text and tag
// plan. The point lookup has no FLWR and no plan.
func (c *class) compile(key int) (string, *xmlpub.TagPlan) {
	if c.flwr == nil {
		return fmt.Sprintf("select s_name, s_acctbal from supplier where s_suppkey = %d", key), nil
	}
	q := c.flwr(key)
	return q.SQL(c.strategy), q.TagPlan()
}

func fixed(q func() *xmlpub.FLWR) func(int) *xmlpub.FLWR {
	return func(int) *xmlpub.FLWR { return q() }
}

func q3() *xmlpub.FLWR { return xmlpub.Q3(0.9, 1.1) }

// ordersQuery is Q2's shape over many small groups: per order, how many
// of its items cost at least, and less than, the order's average.
func ordersQuery() *xmlpub.FLWR {
	v := &xmlpub.View{
		RootTag:  "orders",
		ElemTag:  "order",
		Tables:   []string{"lineitem", "part"},
		JoinCond: fmt.Sprintf("l_partkey = p_partkey and l_orderkey <= %d", ordersMaxKey),
		KeyCol:   "l_orderkey",
		KeyTag:   "orderkey",
		ChildTag: "item",
		ChildFields: []xmlpub.Field{
			{Col: "p_name", Tag: "name"},
			{Col: "l_extendedprice", Tag: "price"},
		},
	}
	avg := &xmlpub.AggRef{Fn: "avg", Col: "l_extendedprice"}
	return &xmlpub.FLWR{
		View: v,
		Return: []xmlpub.Item{
			{Kind: xmlpub.ItemFilteredCount, Tag: "count_above", FilterCol: "l_extendedprice", FilterOp: ">=", FilterAgg: avg},
			{Kind: xmlpub.ItemFilteredCount, Tag: "count_below", FilterCol: "l_extendedprice", FilterOp: "<", FilterAgg: avg},
		},
	}
}

// entityQuery is Q1 for one supplier: an 81-row document.
func entityQuery(key int) *xmlpub.FLWR {
	q := xmlpub.Q1()
	q.View.JoinCond += fmt.Sprintf(" and ps_suppkey = %d", key)
	return q
}

// workload is one traffic mix.
type workload struct {
	name    string
	classes []*class
	open    bool // Poisson arrivals at rateSteps, else a closed loop
	conns   int
}

var workloads = []*workload{
	{
		name: "wide_docs",
		classes: []*class{
			{name: "q1", mode: rowsTagMode, strategy: xmlpub.GApply, flwr: fixed(xmlpub.Q1), twin: "dop1"},
		},
		conns: 1,
	},
	{
		name: "grouped_analytics",
		classes: []*class{
			{name: "q2", mode: xmlMode, strategy: xmlpub.GApply, flwr: fixed(xmlpub.Q2), twin: "dop1"},
			{name: "q3", mode: xmlMode, strategy: xmlpub.GApply, flwr: fixed(q3), twin: "dop1"},
			{name: "orders", mode: xmlMode, strategy: xmlpub.GApply, flwr: fixed(ordersQuery), twin: "dop1"},
		},
		conns: 1,
	},
	{
		name: "sorted_baseline",
		classes: []*class{
			{name: "q1", mode: xmlMode, strategy: xmlpub.SortedOuterUnion, flwr: fixed(xmlpub.Q1), twin: "gapply"},
			{name: "q2", mode: xmlMode, strategy: xmlpub.SortedOuterUnion, flwr: fixed(xmlpub.Q2), twin: "gapply"},
			{name: "q3", mode: xmlMode, strategy: xmlpub.SortedOuterUnion, flwr: fixed(q3), twin: "gapply"},
		},
		conns: 1,
	},
	{
		name: "entity_serving",
		classes: []*class{
			{name: "point", mode: rowsMode, keyed: true},
			{name: "entity", mode: xmlMode, strategy: xmlpub.GApply, keyed: true, flwr: entityQuery, twin: "dop1"},
			{name: "q2", mode: xmlMode, strategy: xmlpub.GApply, flwr: fixed(xmlpub.Q2), twin: "dop1"},
		},
		open:  true,
		conns: openConns,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// request is one generated input: which class, and for keyed classes
// which supplier.
type request struct {
	class int
	key   int
}

// sequence generates a workload's requests from the seed alone, so two
// passes built from one seed issue the same requests in the same order.
type sequence struct {
	w       *workload
	rng     *rand.Rand
	keys    int   // supplier keys are 1..keys
	hot     []int // the hot set, chosen by the seed
	pending []request
}

func newSequence(w *workload, seed int64, keys int) *sequence {
	s := &sequence{w: w, rng: rand.New(rand.NewSource(seed)), keys: keys}
	if w.open {
		s.hot = s.rng.Perm(keys)
		if len(s.hot) > hotKeys {
			s.hot = s.hot[:hotKeys]
		}
	}
	return s
}

func (s *sequence) next() request {
	if len(s.pending) == 0 {
		s.refill()
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	return r
}

// refill appends one closed-loop cycle (every class once) or one
// open-loop block (the fixed mix), in seeded order.
func (s *sequence) refill() {
	var classes []int
	if s.w.open {
		for i := 0; i < mixBlock; i++ {
			switch {
			case i < mixPoint:
				classes = append(classes, 0)
			case i < mixPoint+mixEntity:
				classes = append(classes, 1)
			default:
				classes = append(classes, 2)
			}
		}
	} else {
		for i := range s.w.classes {
			classes = append(classes, i)
		}
	}
	s.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for _, c := range classes {
		r := request{class: c}
		if s.w.classes[c].keyed {
			// Half the keys from the hot set, half uniform over all.
			if s.rng.Intn(2) == 0 {
				r.key = s.hot[s.rng.Intn(len(s.hot))] + 1
			} else {
				r.key = s.rng.Intn(s.keys) + 1
			}
		}
		s.pending = append(s.pending, r)
	}
}

// cycle is how many requests keep the class mix exact: passes stop on
// a multiple of it.
func (w *workload) cycle() int {
	if w.open {
		return mixBlock
	}
	return len(w.classes)
}

// arrivals draws the offsets of n Poisson arrivals over dur. Given
// their number, the arrival times of a Poisson process are independent
// and uniform over the interval; fixing the number (stepRequests)
// leaves the seed the times and takes the count's own spread, 2% of a
// step's requests, out of every per-request metric.
func arrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stepRequests is how many requests a rate step of about dur offers:
// whole mix blocks, so the class mix is exact, and at least one. The
// step then lasts stepRequests/rps.
func stepRequests(rps float64, dur time.Duration) int {
	blocks := int(math.Round(rps * dur.Seconds() / mixBlock))
	return max(blocks, 1) * mixBlock
}
