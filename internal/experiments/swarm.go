package experiments

import (
	"context"
	"fmt"
	mathrand "math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// This file implements `ppbench swarm`: an open-loop load harness over a
// live TCP deployment of the serving plane. A closed-loop driver's
// workers wait for each completion before submitting again, so offered
// load self-throttles under overload; the swarm fires requests on a
// Poisson arrival schedule regardless of how the server is coping — the
// only way to see the latency-vs-offered-load knee and to exercise the
// shedder the way real traffic does. The run doubles as a ground-truth
// check on the live telemetry plane: the windowed serve metrics, the SLO
// burn-rate engine, and the tail-sampled trace store are all asserted
// against the client's own accounting.

// Swarm deployment shape: enough client sessions that the server-global
// shedder (not the per-session window) is the contended resource at
// overload.
const (
	swarmClients     = 4
	swarmWindow      = 8
	swarmMaxInFlight = 8
)

// SwarmPoint is one offered-load level's measurement.
type SwarmPoint struct {
	// Offered is the open-loop arrival rate, requests/second.
	Offered  float64
	Arrivals int
	// Completed / Rejected / Failed partition the arrivals: rejected
	// means a retryable shed/throttle rejection, failed anything else.
	Completed int
	Rejected  int
	Failed    int
	// Shed counts the server's admission refusals during the point, the
	// ones a client retried in session and then completed included.
	Shed    int
	Elapsed time.Duration
	// Achieved is the completion throughput, requests/second.
	Achieved float64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
}

// SwarmResult is the swarm run's full accounting: the offered-load
// sweep, the detected knee, and the telemetry-plane cross-checks.
type SwarmResult struct {
	KeyBits int
	// Baseline percentiles from an unloaded sequential warm-up; the SLO
	// latency target and the knee's p99 threshold derive from these.
	BaselineP50 time.Duration
	BaselineP99 time.Duration
	Points      []SwarmPoint
	// KneeIndex is the first sweep point where the server stopped
	// keeping up: it shed a request, achieved < 85% of offered, or p99
	// went beyond 3× the first (low-load) point's p99 — the sequential
	// baseline is not the reference because even healthy interleaving
	// inflates tail latency over a one-at-a-time run. -1 when the sweep
	// never found one.
	KneeIndex   int
	KneeOffered float64
	// SLO is the engine's final evaluation; FastAlertFired reports
	// whether any objective's fast-burn alert was firing by the end of
	// the overload point, FastAlertBeforeKnee whether one was already
	// firing after the first (unloaded) point — it must not be.
	SLO                 []obs.SLOStatus
	FastAlertFired      bool
	FastAlertBeforeKnee bool
	// SlowTraceID names a retained merged (client+server) trace slower
	// than baseline p99 — the "why was this one slow" artifact the span
	// store exists for; empty when none was retained.
	SlowTraceID string
	// LiveOK / CumulativeOK are the two views of serve.requests.ok — its
	// trailing-minute window and its total; they must agree when the whole
	// run fits inside the live window (LiveChecked).
	LiveOK       uint64
	CumulativeOK uint64
	LiveChecked  bool

	Elapsed time.Duration

	// Traces is the harness's span store (memory-mode), kept so callers
	// — `ppbench swarm` tests, the /debug/traces handler — can query the
	// retained traces after the run.
	Traces *obs.TraceStore
}

// swarmValidate is the invariant list a swarm run must satisfy to gate
// CI: the sweep is a sweep, the knee exists, the SLO engine saw it, the
// span store kept the evidence, and the windowed metrics agree with
// ground truth.
func (r *SwarmResult) swarmValidate() error {
	total := 0
	for _, p := range r.Points {
		total += p.Completed
	}
	switch {
	case total == 0:
		return fmt.Errorf("experiments: swarm completed no requests")
	case len(r.Points) < 3:
		return fmt.Errorf("experiments: swarm swept %d offered-load points, need at least 3 to place a knee", len(r.Points))
	case r.KneeIndex < 0:
		return fmt.Errorf("experiments: swarm found no knee up to %.1f req/s — overload point too gentle",
			r.Points[len(r.Points)-1].Offered)
	case !r.FastAlertFired:
		return fmt.Errorf("experiments: overload did not trip the SLO fast-burn alert")
	// FastAlertBeforeKnee is sampled after point 0 only. When point 0 is
	// itself the knee, an alert there fired at the knee, not before it.
	case r.KneeIndex > 0 && r.FastAlertBeforeKnee:
		return fmt.Errorf("experiments: SLO fast-burn alert fired before the knee (false positive)")
	case r.SlowTraceID == "":
		return fmt.Errorf("experiments: span store retained no slow merged trace")
	case r.LiveChecked && r.LiveOK != r.CumulativeOK:
		return fmt.Errorf("experiments: windowed serve.requests.ok (%d) disagrees with cumulative (%d)",
			r.LiveOK, r.CumulativeOK)
	}
	return nil
}

// Swarm runs the open-loop load harness against a live TCP server and
// validates the telemetry plane against the run's own ground truth. The
// returned error is non-nil when an invariant fails, so `ppbench swarm`
// can gate CI.
func Swarm(cfg Config) (*SwarmResult, error) {
	cfg = cfg.withDefaults()
	begin := time.Now()

	netw, err := serveNet()
	if err != nil {
		return nil, err
	}
	key, err := sharedKey(cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	r := mathrand.New(mathrand.NewSource(41))
	inputs := serveInputs(r, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Phase 1 — baseline: sequential requests on a throwaway unloaded
	// session give the zero-queueing latency the knee thresholds and the
	// SLO latency target are calibrated from.
	baseLats, err := swarmBaseline(ctx, netw, key, inputs[:8])
	if err != nil {
		return nil, fmt.Errorf("experiments: swarm baseline: %w", err)
	}
	res := &SwarmResult{
		KeyBits:     cfg.KeyBits,
		BaselineP50: percentile(baseLats, 0.50),
		BaselineP99: percentile(baseLats, 0.99),
	}

	// Phase 2 — deployment: a real listener, one session per client
	// connection, all sessions sharing one shedder, rate limiter, SLO
	// engine, and span store. The SLO latency target sits well above
	// baseline so only genuine overload (not bucket noise) burns budget.
	sloTarget := 10 * res.BaselineP99
	if sloTarget < 100*time.Millisecond {
		sloTarget = 100 * time.Millisecond
	}
	reg := obs.NewRegistry("swarm/server")
	slo, err := obs.NewSLOEngine(obs.SLOConfig{
		Specs: []obs.SLOSpec{
			{Name: "p99", Objective: 0.99, LatencyTarget: sloTarget},
			{Name: "avail", Objective: 0.999},
		},
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	traces, err := obs.NewTraceStore(obs.TraceStoreConfig{Registry: reg})
	if err != nil {
		return nil, err
	}
	res.Traces = traces
	shed := protocol.NewShedder(protocol.ShedConfig{MaxInFlight: swarmMaxInFlight, Registry: reg})
	limiter, err := protocol.NewRateLimiter(4096, time.Second)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var sessions sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: shutdown
			}
			sessions.Add(1)
			go func() {
				defer sessions.Done()
				defer conn.Close()
				edge := stream.NewTCPEdge(conn)
				_ = protocol.ServeSessionConfig(ctx, edge, edge, netw, protocol.SessionConfig{
					Factor:     serveFactor,
					MaxWorkers: 2,
					Window:     swarmWindow,
					Shed:       shed,
					Limiter:    limiter,
					Registry:   reg,
					Traces:     traces,
					SLO:        slo,
				})
			}()
		}
	}()
	addr := ln.Addr().String()

	clients := make([]*protocol.Client, swarmClients)
	for i := range clients {
		edge, err := stream.DialEdge(addr)
		if err != nil {
			return nil, err
		}
		clients[i], err = protocol.NewClientOpts(ctx, edge, edge, netw, key, serveFactor, protocol.ClientOptions{
			Workers:  1,
			Window:   swarmWindow,
			Deadline: time.Minute,
		})
		if err != nil {
			return nil, err
		}
	}

	// Phase 3 — the sweep. Offered rates are multiples of a capacity
	// estimate from the baseline (two workers' worth of serial service
	// rate); the last point is a deliberate heavy overload so the knee,
	// the shedder, and the fast-burn alert are all exercised every run.
	capacity := 2 / res.BaselineP50.Seconds()
	multiples := []float64{0.2, 0.5, 1, 2, 4, 8}
	if cfg.Quick {
		multiples = []float64{0.2, 1, 8}
	}
	perPoint := cfg.Requests * 6
	if perPoint < 24 {
		perPoint = 24
	}
	shedCount := reg.Counter("serve.requests.shed")
	for pi, m := range multiples {
		offered := m * capacity
		n := perPoint
		if m >= 4 {
			// The overload point doubles its arrivals so the shed fraction
			// dominates the SLO windows regardless of scheduler luck.
			n = 2 * perPoint
		}
		shedBefore := shedCount.Value()
		point := swarmPoint(ctx, clients, traces, inputs, r, offered, n)
		point.Shed = int(shedCount.Value() - shedBefore)
		res.Points = append(res.Points, point)
		if pi == 0 {
			for _, st := range slo.Evaluate() {
				if st.FastAlert {
					res.FastAlertBeforeKnee = true
				}
			}
		}
	}

	if res.KneeIndex = swarmKnee(res.Points); res.KneeIndex >= 0 {
		res.KneeOffered = res.Points[res.KneeIndex].Offered
	}
	res.SLO = slo.Evaluate()
	for _, st := range res.SLO {
		if st.FastAlert {
			res.FastAlertFired = true
		}
	}

	// Telemetry cross-checks against the run's own ground truth. The ok
	// counter's window must agree with its total as long as the whole
	// serving phase fits inside the live window.
	ok := reg.Counter("serve.requests.ok")
	res.CumulativeOK = ok.Value()
	res.LiveOK = ok.Live().Count
	res.LiveChecked = time.Since(begin) < 45*time.Second

	// The span store must have kept a slow merged trace: client+server
	// spans joined under one trace ID, slower than the unloaded p99.
	recs, err := traces.Query(obs.TraceQuery{})
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		t := rec.Trace
		if t == nil || t.Total <= res.BaselineP99 {
			continue
		}
		var hasClient, hasServer bool
		for _, s := range t.Segments {
			switch s.Party {
			case "client":
				hasClient = true
			case "server":
				hasServer = true
			}
		}
		if hasClient && hasServer {
			res.SlowTraceID = t.ID
			break
		}
	}

	for _, cl := range clients {
		_ = cl.Close() // overload runs legitimately end with torn requests
	}
	ln.Close()
	cancel()
	sessions.Wait()
	res.Elapsed = time.Since(begin)

	return res, res.swarmValidate()
}

// swarmKnee returns the index of the first point where the server stopped
// keeping up (SwarmResult.KneeIndex), or -1. A shed counts even when the
// client's retry hid it from Rejected: the SLO engine counts it as a bad
// event all the same. The first point is the low-load latency reference,
// so it can only be the knee by shedding or by missing its offered rate.
func swarmKnee(points []SwarmPoint) int {
	for i, p := range points {
		if p.Shed > 0 || p.Achieved < 0.85*p.Offered || (i > 0 && p.P99 > 3*points[0].P99) {
			return i
		}
	}
	return -1
}

// swarmBaseline runs the inputs one at a time over a throwaway TCP
// session of its own (no shedder, limiter or SLO engine — the engine's
// latency target is derived from this result) and returns the sorted
// per-request latencies.
func swarmBaseline(ctx context.Context, netw *nn.Network, key *paillier.PrivateKey, inputs []*tensor.Dense) ([]time.Duration, error) {
	serverEdge, addr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- protocol.ServeSessionConfig(ctx, serverEdge, serverEdge, netw, protocol.SessionConfig{
			Factor:     serveFactor,
			MaxWorkers: 2,
			Window:     1,
		})
	}()
	clientEdge, err := stream.DialEdge(addr)
	if err != nil {
		return nil, err
	}
	client, err := protocol.NewClientOpts(ctx, clientEdge, clientEdge, netw, key, serveFactor,
		protocol.ClientOptions{Workers: 1, Window: 1})
	if err != nil {
		return nil, err
	}
	lats := make([]time.Duration, 0, len(inputs))
	for i, x := range inputs {
		start := time.Now()
		if _, err := client.Infer(ctx, x); err != nil {
			_ = client.Close() // the request error is the one worth reporting
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	if err := client.Close(); err != nil {
		return nil, err
	}
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("server session: %w", err)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, nil
}

// percentile reads the p-quantile off an ascending latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// swarmPoint fires n Poisson arrivals at the offered rate and waits for
// every outcome. Arrivals are open-loop: each fires at its scheduled
// instant in its own goroutine, regardless of how many are still in
// flight — under overload they pile onto the client windows and the
// server's shedder, exactly like real traffic.
func swarmPoint(ctx context.Context, clients []*protocol.Client, traces *obs.TraceStore,
	inputs []*tensor.Dense, r *mathrand.Rand, offered float64, n int) SwarmPoint {
	point := SwarmPoint{Offered: offered, Arrivals: n}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		lats []time.Duration
	)
	begin := time.Now()
	next := begin
	for i := 0; i < n; i++ {
		// Exponential interarrival gaps = Poisson arrivals; the seeded
		// source keeps the schedule reproducible across runs.
		next = next.Add(time.Duration(r.ExpFloat64() / offered * float64(time.Second)))
		time.Sleep(time.Until(next))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			_, tree, err := clients[i%len(clients)].InferTraced(ctx, inputs[i%len(inputs)])
			lat := time.Since(start)
			traces.Record(tree, nil, err)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				point.Completed++
				lats = append(lats, lat)
			case protocol.Retryable(err):
				point.Rejected++
			default:
				point.Failed++
			}
		}(i)
	}
	wg.Wait()
	point.Elapsed = time.Since(begin)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	point.Achieved = float64(point.Completed) / point.Elapsed.Seconds()
	point.P50 = percentile(lats, 0.50)
	point.P95 = percentile(lats, 0.95)
	point.P99 = percentile(lats, 0.99)
	return point
}

// Render formats the sweep, the knee, and the telemetry verdicts.
func (r *SwarmResult) Render() string {
	header := []string{"offered/s", "arrivals", "completed", "rejected", "failed", "shed", "achieved/s", "p50", "p95", "p99"}
	var rows [][]string
	for i, p := range r.Points {
		mark := ""
		if i == r.KneeIndex {
			mark = " <- knee"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.Offered), fmt.Sprint(p.Arrivals), fmt.Sprint(p.Completed),
			fmt.Sprint(p.Rejected), fmt.Sprint(p.Failed), fmt.Sprint(p.Shed),
			fmt.Sprintf("%.1f", p.Achieved),
			fmtDur(p.P50), fmtDur(p.P95), fmtDur(p.P99) + mark,
		})
	}
	var b []byte
	b = append(b, fmt.Sprintf(
		"Swarm: open-loop Poisson load sweep (%d-bit key), baseline p50 %s / p99 %s, %s total\n%s",
		r.KeyBits, fmtDur(r.BaselineP50), fmtDur(r.BaselineP99),
		r.Elapsed.Round(time.Millisecond), renderTable(header, rows))...)
	for _, st := range r.SLO {
		b = append(b, fmt.Sprintf("slo %-5s objective %.3f: fast_alert=%v slow_alert=%v (burn %.1f/%.1f)\n",
			st.Name, st.Objective, st.FastAlert, st.SlowAlert,
			st.Windows[0].Burn, st.Windows[1].Burn)...)
	}
	b = append(b, fmt.Sprintf("slow trace retained: %q; windowed ok %d vs cumulative %d (checked=%v)\n",
		r.SlowTraceID, r.LiveOK, r.CumulativeOK, r.LiveChecked)...)
	return string(b)
}
