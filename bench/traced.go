package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// The traced pass splits a run's measuring time between its phases.
const (
	// shareSteps goes to the loop that interleaves traced step-by-step
	// requests, bare step-by-step requests and requests
	// through the serving runtime.
	shareSteps = 0.60
	// shareLoad goes to the serving runtime alone, collecting the traces
	// the runtime itself returns.
	shareLoad = 0.25
	// shareObs goes to the telemetry on/off comparison (heart-seq only;
	// elsewhere the steps phase gets it).
	shareObs = 0.15
	// obsBlock is how many requests run against one side before the
	// telemetry comparison switches to the other.
	obsBlock = 10
)

func (b budget) share(f float64) budget {
	return budget{requests: b.requests, duration: time.Duration(f * float64(b.duration))}
}

// spent reports whether a sequential phase that began at start and has
// sent n requests is over.
func (b budget) spent(start time.Time, n int) bool {
	if b.requests > 0 {
		return n >= b.requests
	}
	return time.Since(start) >= b.duration
}

// stepSamples are the per-request numbers the steps phase collects.
type stepSamples struct {
	tracedTotal, bareTotal, runtimeTotal []time.Duration
	decryptUS                            []float64
	wireAllocMB                          []float64
}

// runTraced is the traced pass of one workload: it brings the deployment
// up once, times every layer from outside, checks the waterfall, writes
// the trace file and reports every per-layer metric.
func runTraced(ctx context.Context, w workload, in *inputs, o options, b budget) (*report, error) {
	sys, _, err := setUp(ctx, w, in, b.warmups(), nil)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var st *stepper
	if es, ok := sys.(*engineSystem); ok {
		st = newEngineStepper(es, in)
	} else if st, err = newSessionStepper(ctx, w, in); err != nil {
		return nil, err
	}
	defer st.close()

	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	phases := map[string]tally{}
	rec := newRecorder()

	// Warm the stepper's own roles like set-up warmed the deployment's.
	for i := 0; i < b.warmups(); i++ {
		if _, err := st.infer(ctx, nil, in.pool[i%len(in.pool)]); err != nil {
			return nil, fmt.Errorf("bench: step-by-step warm-up: %w", err)
		}
	}

	// Phase 1: one in flight. Each cycle of four requests runs two traced
	// walks, one bare walk and one request through the serving runtime, so
	// drift on the host lands on all three alike.
	stepsBudget := b.share(shareSteps)
	if w.name != "heart-seq" {
		stepsBudget = b.share(shareSteps + shareObs)
	}
	stepsBudget.requests *= 4
	var ss stepSamples
	var stepTally tally
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, start := 0, time.Now(); !stepsBudget.spent(start, i); i++ {
		k := rng.Intn(len(in.pool))
		stepTally.sent++
		var out *tensor.Dense
		var err error
		switch i % 4 {
		case 0, 2:
			var res *stepResult
			if res, err = st.infer(ctx, rec, in.pool[k]); err == nil {
				out = res.out
				ss.tracedTotal = append(ss.tracedTotal, res.total)
				ss.wireAllocMB = append(ss.wireAllocMB, float64(res.wireAlloc)/mb)
				var us float64
				if us, err = st.probeDecrypt(res); err == nil && us > 0 {
					ss.decryptUS = append(ss.decryptUS, us)
				}
			}
		case 1:
			var res *stepResult
			if res, err = st.infer(ctx, nil, in.pool[k]); err == nil {
				out = res.out
				ss.bareTotal = append(ss.bareTotal, res.total)
			}
		case 3:
			t0 := time.Now()
			if out, err = sys.infer(ctx, in.pool[k]); err == nil {
				ss.runtimeTotal = append(ss.runtimeTotal, time.Since(t0))
			}
		}
		switch {
		case err != nil:
			stepTally.errored++
			note(err)
		case !sameBits(out, in.expected[k]):
			stepTally.wrong++
		default:
			stepTally.succeeded++
		}
	}
	phases["steps"] = stepTally

	// Phase 2: the serving runtime alone, keeping the traces it returns.
	var (
		trees  []*obs.TraceTree
		traces []*stream.Trace
	)
	call := func(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
		switch s := sys.(type) {
		case *session:
			out, tree, err := s.client.InferTraced(ctx, x)
			if tree != nil {
				trees = append(trees, tree)
			}
			return out, err
		case *engineSystem:
			out, tr, err := s.engine.Submit(ctx, x)
			if tr != nil && err == nil {
				traces = append(traces, tr)
			}
			return out, err
		}
		return nil, fmt.Errorf("bench: unknown system %T", sys)
	}
	wireBefore := sys.wireBytes()
	load := closedLoop(ctx, call, in, rng, b.share(shareLoad), nil)
	wirePerReq := float64(sys.wireBytes()-wireBefore) / float64(max(load.sent, 1))
	phases["load"] = load.tally
	if load.firstErr != nil {
		note(load.firstErr)
	}

	values := map[string]float64{}
	for _, d := range perLayerMetrics {
		values[d.name] = 0
	}

	// Phase 3 (heart-seq): the same session path with every telemetry
	// sink on against all off, in alternating blocks.
	if w.name == "heart-seq" {
		overhead, t, err := obsOverhead(ctx, w, in, sys, rng, b.share(shareObs))
		if err != nil {
			return nil, err
		}
		phases["obs"] = t
		values["obs.session_overhead_ms"] = overhead
	}

	wf := rec.buildWaterfall()
	stepMetrics(rec, &ss, values)
	runtimeP50 := ms(medianDuration(ss.runtimeTotal))
	bareP50 := ms(medianDuration(ss.bareTotal))
	if bareP50 > 0 {
		values["trace.overhead_pct"] = 100 * (ms(medianDuration(ss.tracedTotal)) - bareP50) / bareP50
	}
	switch s := sys.(type) {
	case *session:
		values["protocol.session_overhead_ms"] = runtimeP50 - bareP50
		sessionMetrics(trees, values)
	case *engineSystem:
		values["core.pipeline_overhead_ms"] = runtimeP50 - bareP50
		values["core.plan_ms"] = ms(s.planTime)
		engineMetrics(traces, values)
	}
	var total tally
	for _, t := range phases {
		total.add(t)
	}
	values["serve.latency_p90_ms"] = statsOf(load.samples).p90
	values["serve.wire_bytes_per_req"] = wirePerReq
	values["serve.fail_share"] = float64(total.failed()) / float64(max(total.sent, 1))

	fmt.Printf("\n%s  (traced pass)\n", w.name)
	for _, name := range []string{"steps", "load", "obs"} {
		if t, ok := phases[name]; ok {
			printTally(name, t)
		}
	}
	if firstErr != nil {
		fmt.Printf("  first error: %v\n", firstErr)
	}
	wf.print()
	for _, d := range perLayerMetrics {
		fmt.Printf("  %-38s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	path, err := writeTraceFile(o.outDir, &traceFile{
		Host: hostInfo(), Workload: w.name, Seed: o.seed,
		Tally: phases, Metrics: values, Waterfall: wf, Spans: rec.spans,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: writing trace file: %w", err)
	}
	fmt.Printf("  spans written to %s\n", path)
	correct := total.failed() == 0 && total.sent > 0 && wf.OK
	return reportOf(total, correct, perLayerMetrics, values), nil
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return quantile(s, 0.5)
}

// stepMetrics derives the per-layer numbers from the step-by-step spans:
// per request sums first, then the median across requests.
func stepMetrics(rec *recorder, ss *stepSamples, values map[string]float64) {
	type perReq struct {
		dur   map[string]time.Duration
		cost  obs.CostStats
		enc   obs.CostStats // cost of the encrypt span
		nlEnc uint64        // encryptions inside non-linear spans
		hops  int
	}
	reqs := map[int]*perReq{}
	get := func(id int) *perReq {
		if reqs[id] == nil {
			reqs[id] = &perReq{dur: map[string]time.Duration{}}
		}
		return reqs[id]
	}
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.Name == spanRequest {
			continue
		}
		r := get(s.Req)
		r.dur[s.Name] += s.dur()
		switch s.Name {
		case spanKernel:
			r.dur["backend.kernel_ms."+s.Backend] += s.dur()
		case spanNonLinear:
			r.dur["backend.nonlinear_ms."+s.Backend] += s.dur()
			if s.Cost != nil {
				r.nlEnc += s.Cost.Encrypts
			}
		case spanSendRecv:
			r.hops++
		case spanEncrypt:
			if s.Cost != nil {
				r.enc = *s.Cost
			}
		}
		if s.Cost != nil {
			r.cost.Add(*s.Cost)
		}
	}
	if len(reqs) == 0 {
		return
	}
	med := func(f func(*perReq) float64) float64 {
		xs := make([]float64, 0, len(reqs))
		for _, r := range reqs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	durOf := func(name string) func(*perReq) float64 {
		return func(r *perReq) float64 { return ms(r.dur[name]) }
	}
	values["protocol.encrypt_ms"] = med(durOf(spanEncrypt))
	values["protocol.linear_ms"] = med(durOf(spanLinear))
	values["paillier.kernel_ms_per_req"] = med(durOf(spanKernel))
	values["protocol.permute_ms"] = med(durOf(spanPermute))
	values["protocol.nonlinear_ms"] = med(durOf(spanNonLinear))
	values["protocol.towire_ms"] = med(durOf(spanToWire))
	values["protocol.fromwire_ms"] = med(durOf(spanFromWire))
	values["stream.send_recv_ms_per_req"] = med(durOf(spanSendRecv))
	values["stream.frames_per_req"] = med(func(r *perReq) float64 { return float64(r.hops) })
	values["stream.alloc_mb_per_req"] = median(ss.wireAllocMB)
	for _, k := range backend.Kinds() {
		values["backend.kernel_ms."+string(k)] = med(durOf("backend.kernel_ms." + string(k)))
	}
	values["backend.nonlinear_ms.ss-gc"] = med(durOf("backend.nonlinear_ms." + string(backend.SSGC)))

	encUS := med(func(r *perReq) float64 {
		if r.enc.Encrypts == 0 {
			return 0
		}
		return float64(r.dur[spanEncrypt]) / float64(time.Microsecond) / float64(r.enc.Encrypts)
	})
	decUS := median(ss.decryptUS)
	values["paillier.encrypt_us_per_ct"] = encUS
	values["paillier.decrypt_us_per_ct"] = decUS
	count := func(f func(*obs.CostStats) uint64) float64 {
		return med(func(r *perReq) float64 { return float64(f(&r.cost)) })
	}
	decrypts := count(func(c *obs.CostStats) uint64 { return c.Decrypts })
	// Estimates, not measurements: operation count times unit cost. The
	// program does not time decryption and re-encryption apart inside
	// ProcessNonLinear.
	values["protocol.nonlinear_decrypt_ms_est"] = decrypts * decUS / 1000
	values["protocol.nonlinear_reencrypt_ms_est"] = med(func(r *perReq) float64 { return float64(r.nlEnc) }) * encUS / 1000
	values["paillier.modexps_per_req"] = count(func(c *obs.CostStats) uint64 { return c.ModExps })
	values["paillier.mulmods_per_req"] = count(func(c *obs.CostStats) uint64 { return c.MulMods })
	values["paillier.modinverses_per_req"] = count(func(c *obs.CostStats) uint64 { return c.ModInverses })
	values["paillier.encrypts_per_req"] = count(func(c *obs.CostStats) uint64 { return c.Encrypts })
	values["paillier.decrypts_per_req"] = decrypts
	values["backend.gc_gates_per_req"] = count(func(c *obs.CostStats) uint64 { return c.GCGates })
	values["backend.triples_per_req"] = count(func(c *obs.CostStats) uint64 { return c.Triples })
	values["backend.ext_ots_per_req"] = count(func(c *obs.CostStats) uint64 { return c.ExtOTs })
	values["backend.plain_ops_per_req"] = count(func(c *obs.CostStats) uint64 { return c.PlainOps })
}

// sessionMetrics reads what protocol.Client.InferTraced reported in the
// load phase: queueing on both sides, and how often the
// blinding pools had a factor ready (a miss is a full exponentiation on
// the request's critical path). paillier.pool_hit_ratio is computed here
// and nowhere else: core.Engine reports no pool counters for its Submit
// path, so on conv-engine the metric reads 0 — not measured.
func sessionMetrics(trees []*obs.TraceTree, values map[string]float64) {
	var serverQ, clientQ []float64
	var hits, misses uint64
	for _, t := range trees {
		var sq, cq time.Duration
		for _, seg := range t.Segments {
			if seg.Name != "queue" {
				continue
			}
			if seg.Party == "server" {
				sq += seg.Dur
			} else if seg.Party == "client" {
				cq += seg.Dur
			}
		}
		serverQ = append(serverQ, ms(sq))
		clientQ = append(clientQ, ms(cq))
		c := t.Cost()
		hits += c.PoolHits
		misses += c.PoolMisses
	}
	values["protocol.server_queue_ms"] = median(serverQ)
	values["protocol.client_queue_ms"] = median(clientQ)
	if hits+misses > 0 {
		values["paillier.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// engineMetrics reads the per-stage wait and busy times core.Engine.Submit
// returned in the load phase. Linear stages run at the model
// provider; "encrypt" and the non-linear stages at the data provider.
func engineMetrics(traces []*stream.Trace, values map[string]float64) {
	var linear, nonlinear, wait []float64
	busyByStage := map[string]time.Duration{}
	var busyAll time.Duration
	for _, t := range traces {
		var l, n, wt time.Duration
		for _, sp := range t.Spans {
			wt += sp.Wait
			busyByStage[sp.Stage] += sp.Busy
			busyAll += sp.Busy
			if strings.HasPrefix(sp.Stage, "linear-") {
				l += sp.Busy
			} else {
				n += sp.Busy
			}
		}
		linear = append(linear, ms(l))
		nonlinear = append(nonlinear, ms(n))
		wait = append(wait, ms(wt))
	}
	values["core.stage_busy_ms_linear"] = median(linear)
	values["core.stage_busy_ms_nonlinear"] = median(nonlinear)
	values["core.stage_wait_ms"] = median(wait)
	var busiest time.Duration
	for _, d := range busyByStage {
		busiest = max(busiest, d)
	}
	if busyAll > 0 {
		values["core.bottleneck_stage_share"] = float64(busiest) / float64(busyAll)
	}
}

// obsOverhead compares the session path with every server-side telemetry
// sink attached (registry, flight recorder, span store, SLO engine, logger
// to io.Discard) against the workload's own session, which has none. The
// two take turns in blocks so drift on the host lands on both.
func obsOverhead(ctx context.Context, w workload, in *inputs, plain system, rng *rand.Rand, b budget) (float64, tally, error) {
	net, err := in.spec.Build()
	if err != nil {
		return 0, tally{}, err
	}
	observed, err := openSession(ctx, w, net, in.key, true)
	if err != nil {
		return 0, tally{}, err
	}
	defer observed.close()
	for i := 0; i < b.warmups(); i++ {
		if _, err := observed.infer(ctx, in.pool[i%len(in.pool)]); err != nil {
			return 0, tally{}, fmt.Errorf("bench: observed session warm-up: %w", err)
		}
	}
	sides := []system{plain, observed}
	lat := make([][]time.Duration, 2)
	var t tally
	block := obsBlock
	if b.requests > 0 {
		block = b.requests
		b.requests *= 2
	}
	for i, start := 0, time.Now(); !b.spent(start, i); i++ {
		side := (i / block) % 2
		k := rng.Intn(len(in.pool))
		t.sent++
		t0 := time.Now()
		out, err := sides[side].infer(ctx, in.pool[k])
		d := time.Since(t0)
		switch {
		case err != nil:
			t.errored++
		case !sameBits(out, in.expected[k]):
			t.wrong++
		default:
			t.succeeded++
			lat[side] = append(lat[side], d)
		}
	}
	return ms(medianDuration(lat[1])) - ms(medianDuration(lat[0])), t, nil
}
