package main

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gapplydb/client"
	"gapplydb/xmlpub"
)

// smallResponse is the size up to which every response is hashed in
// full. Larger ones (the 3 MB documents) are hashed on warm-up and
// traced requests and checked by length while timed, so that hashing is
// not the load.
const smallResponse = 256 << 10

// sink is the client-side end of a request: it keeps the response
// bytes for checking and notes when the first of them arrived.
type sink struct {
	buf   []byte
	first time.Time
}

func (s *sink) Write(p []byte) (int, error) {
	if len(s.buf) == 0 && len(p) > 0 {
		s.first = time.Now()
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func (s *sink) reset() { s.buf, s.first = s.buf[:0], time.Time{} }

// outcome is one completed request as the load generator saw it.
type outcome struct {
	class  int
	start  time.Time // closed loop: when it was issued; open loop: when it was due
	sent   time.Time // when it was actually issued
	first  time.Time // first response byte at the sink
	end    time.Time // last response byte at the sink
	bytes  int
	stats  client.Stats
	failed bool
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }
func (o *outcome) ttfb() time.Duration    { return o.first.Sub(o.start) }
func (o *outcome) late() time.Duration    { return o.sent.Sub(o.start) }

// publish is one publishing request from the FLWR to the last byte at
// the sink, in the class's mode.
func publish(ctx context.Context, conn *client.Conn, c *class, key int, snk *sink) (st client.Stats, rows int, err error) {
	sqlText, plan := c.compile(key)
	if c.mode == xmlMode {
		st, err = conn.QueryXML(ctx, sqlText, plan, snk)
		return st, 0, err
	}
	rs, err := conn.Query(ctx, sqlText)
	if err != nil {
		return st, 0, err
	}
	defer rs.Close()
	var tagger *xmlpub.Tagger
	if c.mode == rowsTagMode {
		tagger = xmlpub.NewTagger(plan, snk)
	}
	var line []byte
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return st, rows, err
		}
		if !ok {
			break
		}
		rows++
		if tagger != nil {
			if err := tagger.Row(row); err != nil {
				return st, rows, err
			}
		} else {
			line = renderRow(line[:0], row)
			snk.Write(line)
		}
	}
	if tagger != nil {
		if err := tagger.Close(); err != nil {
			return st, rows, err
		}
	}
	return rs.Stats(), rows, nil
}

// do issues one request on conn and checks its response. fullCheck
// hashes a response of any size.
func (h *host) do(conn *client.Conn, w *workload, r request, snk *sink, fullCheck bool) outcome {
	c := w.classes[r.class]
	snk.reset()
	o := outcome{class: r.class, sent: time.Now()}
	o.start = o.sent
	st, rows, err := publish(context.Background(), conn, c, r.key, snk)
	o.end = time.Now()
	o.first, o.bytes, o.stats = snk.first, len(snk.buf), st
	if o.first.IsZero() { // an empty response has its first byte when it ends
		o.first = o.end
	}
	ref := h.refs[refKey{c.name, r.key}]
	switch {
	case err != nil, ref == nil, ref.bad, o.bytes != ref.bytes:
		o.failed = true
	case c.mode != xmlMode && rows != ref.rows:
		o.failed = true
	case fullCheck || o.bytes <= smallResponse:
		o.failed = sha256.Sum256(snk.buf) != ref.sum
	}
	return o
}

// counters is the whole-process cost of a phase, read at its edges.
type counters struct {
	mem     runtime.MemStats
	runtime runtimeSample
	db      map[string]int64
	srv     map[string]int64
}

func (h *host) counters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.runtime = readRuntime()
	c.db = h.db.Metrics().Counters
	c.srv = h.srv.Metrics().Counters
	return c
}

// phase is the record of one measured stretch of requests.
type phase struct {
	outcomes []outcome
	before   counters
	after    counters
	heapPeak uint64
}

// measure runs body between two counter readings, with a sampler
// watching the heap.
func (h *host) measure(body func() []outcome) *phase {
	runtime.GC()
	p := &phase{before: h.counters()}
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() { done <- watchHeap(stop) }()
	p.outcomes = body()
	close(stop)
	p.heapPeak = <-done
	p.after = h.counters()
	return p
}

// closedLoop issues the sequence's requests one after another, taking
// the connections in turn, until the deadline, and then to the end of
// the cycle so the class mix stays exact: at least one cycle.
func (h *host) closedLoop(w *workload, seq *sequence, dur time.Duration, fullCheck bool) []outcome {
	var out []outcome
	var snk sink
	deadline := time.Now().Add(dur)
	for n := 0; n == 0 || n%w.cycle() != 0 || time.Now().Before(deadline); n++ {
		out = append(out, h.do(h.conns[n%len(h.conns)], w, seq.next(), &snk, fullCheck))
	}
	return out
}

// sleepSlack is how early waitUntil stops sleeping; a nanosleep wakes
// 50 to 200 µs late here, which is as long as a point lookup takes.
const sleepSlack = 200 * time.Microsecond

// waitUntil sleeps to within sleepSlack of t and yields the processor
// in a loop for the rest. It sleeps in the kernel because the Go
// runtime rounds a short time.Sleep up to a millisecond.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep only means a longer spin below.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// step is one rate step of the open loop.
type step struct {
	name     string
	rps      float64
	outcomes []outcome
}

// ok reports whether the step met the latency limit: no failures, the
// tail within the limit, and the tail of its last quarter within the
// limit too — a backlog that grows across the step shows there first.
func (s *step) ok() bool {
	var lat, lastQuarter []float64
	for i := range s.outcomes {
		if s.outcomes[i].failed {
			return false
		}
		l := ms(s.outcomes[i].latency())
		lat = append(lat, l)
		if i >= len(s.outcomes)*3/4 {
			lastQuarter = append(lastQuarter, l)
		}
	}
	if len(lat) == 0 {
		return false
	}
	tail := func(xs []float64) float64 { return percentile(sortedCopy(xs), tailPercentile(len(xs), 95)) }
	return tail(lat) <= latencyLimitMS && tail(lastQuarter) <= latencyLimitMS
}

// openLoop offers the sequence's requests at each rate step in turn,
// for about dur/len(rateSteps) each, on Poisson arrivals drawn from the
// seed.
// A request is issued when it is due, whatever came before it, unless
// openWindow requests are already in flight; latency is timed from the
// due time either way.
func (h *host) openLoop(w *workload, seq *sequence, seed int64, dur time.Duration) []step {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	slots := make(chan *sink, openWindow)
	for i := 0; i < openWindow; i++ {
		slots <- &sink{}
	}
	var steps []step
	for _, rs := range rateSteps {
		n := stepRequests(rs.rps, dur/time.Duration(len(rateSteps)))
		due := arrivals(rng, n, time.Duration(float64(n)/rs.rps*float64(time.Second)))
		out := make([]outcome, len(due))
		var wg sync.WaitGroup
		start := time.Now()
		for i, at := range due {
			r := seq.next()
			dueAt := start.Add(at)
			waitUntil(dueAt)
			snk := <-slots
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				o := h.do(h.conns[i%len(h.conns)], w, r, snk, false)
				o.start = dueAt
				out[i] = o
				slots <- snk
			}(i)
		}
		wg.Wait()
		steps = append(steps, step{name: rs.name, rps: rs.rps, outcomes: out})
	}
	return steps
}

func counterDelta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}
