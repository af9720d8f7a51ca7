package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ppstream/internal/tensor"
)

// tally counts what happened to the requests of one phase.
type tally struct {
	sent, succeeded, wrong, errored int
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.succeeded += o.succeeded
	t.wrong += o.wrong
	t.errored += o.errored
}

func (t tally) failed() int { return t.wrong + t.errored }

// budget says when a phase stops sending: once duration has passed.
// Requests in flight at that point complete. Only bench_test.go sets
// requests, which ends a phase after that many instead; the command line
// has no such mode, so every reported number comes from a time-bound run.
type budget struct {
	requests int
	duration time.Duration
}

// A request-count budget is a smoke test: it sets up once and warms up
// with no more requests than it measures.
func (b budget) setups(w workload) int {
	if b.requests > 0 {
		return 1
	}
	return w.setups
}

func (b budget) warmups() int {
	if b.requests > 0 {
		return min(b.requests, warmups)
	}
	return warmups
}

// sample is one succeeded request: when it completed, counted from the
// start of its phase, and how long its caller waited for it.
type sample struct {
	at, latency time.Duration
}

// begun is when the request was sent.
func (s sample) begun() time.Duration { return s.at - s.latency }

// loadResult is the raw outcome of one closed-loop phase.
type loadResult struct {
	tally
	// samples holds every succeeded request in completion order.
	samples []sample
	// wall is how long the phase took, bursts included.
	wall     time.Duration
	firstErr error
}

// closedLoop sends one request at a time, the next only after the
// previous one returned — PP-Stream's callers wait for their reply. The
// seed's rng picks which pool input each request sends; every result is
// compared with the oracle. With a yardstick the caller runs its bursts
// between requests, and samples are on the yardstick's clock; the traced
// pass passes none.
func closedLoop(ctx context.Context, call func(context.Context, *tensor.Dense) (*tensor.Dense, error),
	in *inputs, rng *rand.Rand, b budget, y *yardstick) loadResult {
	var res loadResult
	start := time.Now()
	origin := start
	if y != nil {
		origin = y.start
	}
	var busy, inBursts time.Duration
	for !b.spent(start, res.sent) {
		res.sent++
		k := rng.Intn(len(in.pool))
		if y != nil {
			inBursts = y.pace(busy, inBursts)
		}
		t0 := time.Now()
		out, err := call(ctx, in.pool[k])
		done := time.Now()
		busy += done.Sub(t0)
		switch {
		case err != nil:
			res.errored++
			if res.firstErr == nil {
				res.firstErr = err
			}
		case !sameBits(out, in.expected[k]):
			res.wrong++
		default:
			res.succeeded++
			res.samples = append(res.samples, sample{at: done.Sub(origin), latency: done.Sub(t0)})
		}
	}
	res.wall = time.Since(start)
	return res
}

// undisturbed returns the samples with each latency divided by how much
// slower than usual the host ran around that request (see hostspeed.go).
func undisturbed(s []sample, y *yardstick) []sample {
	out := make([]sample, len(s))
	for i, x := range s {
		out[i] = sample{at: x.at, latency: time.Duration(float64(x.latency) / y.slowdown(x.begun(), x.at))}
	}
	return out
}

// timeGroups is how many consecutive groups a measured phase is cut into.
const timeGroups = 5

// loadStats are the three time metrics of a set of succeeded requests.
type loadStats struct {
	rps, p50, p90 float64
}

// statsOf takes the metrics of one stretch of a closed-loop phase from its
// latencies alone. The caller sends its next request the moment the
// previous one returned, so the stretch served one request per mean
// latency; unlike requests ÷ elapsed time this leaves out the time the
// caller spent in the yardstick's bursts.
func statsOf(s []sample) loadStats {
	if len(s) == 0 {
		return loadStats{}
	}
	lat := make([]time.Duration, len(s))
	var sum time.Duration
	for i, x := range s {
		lat[i] = x.latency
		sum += x.latency
	}
	sortDurations(lat)
	return loadStats{
		rps: float64(len(s)) / sum.Seconds(),
		p50: ms(quantile(lat, 0.50)),
		p90: ms(quantile(lat, 0.90)),
	}
}

// groupMedians cuts a phase's requests, in completion order, into
// timeGroups consecutive groups of equal size, takes statsOf each and
// returns the median group's value of each metric. A disturbance on the
// host that lasts a few seconds lands in one or two groups and the median
// passes over it, whereas a slowdown of the program is in every group.
// (One such disturbance, while this was written, moved p90 over a whole
// run by 25 % and throughput by 9 %.)
func groupMedians(s []sample) loadStats {
	n := min(timeGroups, len(s)) // a smoke test sends fewer requests than groups
	var rps, p50, p90 []float64
	for g := 0; g < n; g++ {
		st := statsOf(s[g*len(s)/n : (g+1)*len(s)/n])
		rps, p50, p90 = append(rps, st.rps), append(p50, st.p50), append(p90, st.p90)
	}
	return loadStats{rps: median(rps), p50: median(p50), p90: median(p90)}
}

// quantile returns the q-quantile of an ascending slice by the
// nearest-rank rule (the smallest value with at least q of the samples at
// or below it); 0 for an empty slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted float samples; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// endToEnd is one untraced run of a workload: what a user of the system
// would see.
type endToEnd struct {
	workload workload
	tally    tally
	firstErr error
	// n is the sample count behind throughput, p50 and p90.
	n       int
	metrics map[string]float64
	// p90 is printed, not reported: see metrics.go.
	p90 float64
	// asClocked is the same three metrics from the latencies as the
	// clock read them, and slowdown is how much slower than usual the
	// yardstick found the host over the measured phase: printed next to
	// the reported numbers, not reported.
	asClocked loadStats
	slowdown  float64
	// wireBytesPerReq is printed but is not an end-to-end metric of
	// BENCHMARK.json: it is 0 on conv-engine (see README.md); the traced
	// pass reports it under "serve.".
	wireBytesPerReq float64
}

// heapReadings is how many collect-and-read cycles live_heap_mb is the
// median of.
const heapReadings = 5

// runEndToEnd performs one untraced run: repeated set-up, then the
// measured closed-loop phase, then the memory readings before teardown.
func runEndToEnd(ctx context.Context, w workload, in *inputs, seed int64, b budget) (*endToEnd, error) {
	var (
		sys    system
		setups []float64
		y      = newYardstick()
	)
	for i := 0; i < b.setups(w); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		s, took, err := setUp(ctx, w, in, b.warmups(), y)
		if err != nil {
			return nil, err
		}
		sys = s
		setups = append(setups, took.Seconds())
	}
	// Start the measured phase from a collected heap so alloc and heap
	// readings do not depend on where the set-ups left the collector.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wireBefore := sys.wireBytes()
	// The request order comes from the seed but not from the same stream
	// that chose the pool, so a longer run extends a shorter one.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	phase, burstsBefore := y.since(time.Now()), len(y.bursts)
	res := closedLoop(ctx, sys.infer, in, rng, b, y)
	runtime.ReadMemStats(&after)
	wire := sys.wireBytes() - wireBefore
	burstAlloc := uint64(len(y.bursts)-burstsBefore) * y.allocPerBurst
	// The yardstick's work is done once the latencies are rescaled; its
	// records and the samples go before the heap readings, so that those
	// hold the program's heap.
	st := groupMedians(undisturbed(res.samples, y))
	asClocked := groupMedians(res.samples)
	slowdown := y.slowdown(phase, phase+res.wall)
	n := len(res.samples)
	y.bursts, res.samples = nil, nil
	// Live heap with the deployment still up: what survives a collection
	// is caches, pools and any per-request state that outlived its request.
	// The median of a few collections keeps whatever a background pool
	// worker happens to hold at one instant out of the reading.
	var heaps []float64
	for i := 0; i < heapReadings; i++ {
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		heaps = append(heaps, float64(live.HeapAlloc)/mb)
	}
	closeErr := sys.close()

	e := &endToEnd{workload: w, tally: res.tally, firstErr: res.firstErr, n: n}
	if e.firstErr == nil {
		e.firstErr = closeErr
	}
	sent := float64(res.sent)
	e.wireBytesPerReq = float64(wire) / sent
	e.asClocked, e.slowdown, e.p90 = asClocked, slowdown, st.p90
	e.metrics = map[string]float64{
		"setup_s":          median(setups),
		"throughput_rps":   st.rps,
		"latency_p50_ms":   st.p50,
		"alloc_mb_per_req": float64(after.TotalAlloc-before.TotalAlloc-burstAlloc) / mb / sent,
		"live_heap_mb":     median(heaps),
	}
	return e, nil
}
