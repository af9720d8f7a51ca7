package experiments

import (
	"context"
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// Chaos is the serving plane's fault-injection smoke: a live TCP server
// under admission control and rate limiting, driven by concurrent
// clients whose connections pass through a stream.ChaosConn injecting
// delays and resets. It proves the failure layer end to end — typed
// throttle/shed rejections are retried, torn sessions are redialed,
// every request ends in exactly one of completed / gave-up / fatal, and
// no goroutine outlives the run.

// serveFactor is the scaling factor both gated harnesses (chaos, swarm)
// agree on; the tiny FC net below is well-conditioned at 1000.
const serveFactor = 1000

// serveNet builds the small two-round network the gated harnesses serve.
// It is deliberately tiny: they exercise the serving runtime's failure
// and overload paths, not kernel throughput (bench/ measures that).
func serveNet() (*nn.Network, error) {
	r := mathrand.New(mathrand.NewSource(17))
	return nn.NewNetwork("serve-bench", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 3, r),
		nn.NewSoftMax("softmax"),
	)
}

// serveInputs draws n inputs for serveNet from r.
func serveInputs(r *mathrand.Rand, n int) []*tensor.Dense {
	inputs := make([]*tensor.Dense, n)
	for i := range inputs {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		inputs[i] = x
	}
	return inputs
}

// ChaosResult is one chaos run's accounting. The invariant the run
// asserts is Completed + GaveUp + Fatal == Requests: the failure layer
// may reject or fail requests, but it may never lose one.
type ChaosResult struct {
	Requests  int
	Completed int
	// GaveUp counts requests that exhausted their retry budget on
	// retryable errors (shed, throttle, torn sessions).
	GaveUp int
	// Fatal counts requests failing with a non-retryable error.
	Fatal int

	// Client-side retry activity (from the retry.* counters).
	Retries uint64
	Redials uint64
	Giveups uint64

	// Server-side rejections.
	Shed      uint64
	Throttled uint64

	// Injected faults across all chaos connections.
	InjectedResets uint64
	InjectedDelays uint64

	// Goroutine accounting: After is sampled once the run has fully shut
	// down and must settle back to Before (small slack for runtime
	// background goroutines).
	GoroutinesBefore int
	GoroutinesAfter  int

	Elapsed time.Duration
}

// chaosAccounted reports whether every request is accounted for.
func (r *ChaosResult) chaosAccounted() bool {
	return r.Completed+r.GaveUp+r.Fatal == r.Requests
}

// chaosLeaked reports whether goroutines survived the run beyond slack.
func (r *ChaosResult) chaosLeaked() bool {
	return r.GoroutinesAfter > r.GoroutinesBefore+chaosGoroutineSlack
}

// chaosGoroutineSlack tolerates runtime-internal goroutines (GC workers,
// netpoller) that come and go independently of the serving plane.
const chaosGoroutineSlack = 4

// Chaos runs the fault-injection smoke and returns an error when one of
// its invariants — full accounting, observed retries, no goroutine
// leaks — does not hold, so `ppbench chaos` can gate CI.
func Chaos(cfg Config) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	requests := cfg.Requests
	if requests < 24 {
		requests = 24
	}
	const clients = 4

	netw, err := serveNet()
	if err != nil {
		return nil, err
	}
	key, err := sharedKey(cfg.KeyBits)
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{Requests: requests}
	runtime.GC()
	res.GoroutinesBefore = runtime.NumGoroutine()
	begin := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Server: a real listener with one session per accepted connection
	// (resets tear sessions down, clients redial). Admission pressure is
	// deliberate: the shedder's in-flight bound sits below the client
	// concurrency and the limiter's window is tight, so the retry paths
	// are exercised on every run, not only under unlucky scheduling.
	serverReg := obs.NewRegistry("chaos/server")
	shed := protocol.NewShedder(protocol.ShedConfig{MaxInFlight: 2, Registry: serverReg})
	limiter, err := protocol.NewRateLimiter(64, 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var (
		connMu   sync.Mutex
		conns    []net.Conn
		sessions sync.WaitGroup
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: shutdown
			}
			connMu.Lock()
			conns = append(conns, conn)
			connMu.Unlock()
			sessions.Add(1)
			go func() {
				defer sessions.Done()
				edge := stream.NewTCPEdge(conn)
				// Session errors are expected here: chaos tears
				// connections down mid-frame by design.
				_ = protocol.ServeSessionConfig(ctx, edge, edge, netw, protocol.SessionConfig{
					Factor:     serveFactor,
					MaxWorkers: 2,
					Window:     clients,
					IdleTTL:    2 * time.Second,
					Shed:       shed,
					Limiter:    limiter,
					Registry:   serverReg,
				})
				conn.Close()
			}()
		}
	}()
	addr := ln.Addr().String()

	// Clients: one Redialer shared by the workers; every dial wraps the
	// connection in a chaos injector with its own derived seed, so each
	// session sees a fresh deterministic fault schedule.
	clientReg := obs.NewRegistry("chaos/client")
	var (
		dialSeq    atomic.Int64
		chaosMu    sync.Mutex
		chaosConns []*stream.ChaosConn
	)
	dial := func(ctx context.Context) (*protocol.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		cc := stream.NewChaosConn(conn, stream.ChaosConfig{
			Seed:      1000 + dialSeq.Add(1),
			DelayProb: 0.05,
			DelayMin:  time.Millisecond,
			DelayMax:  5 * time.Millisecond,
			// High enough that the deterministic schedules tear at least
			// one session per run, exercising the redial path.
			ResetProb: 0.05,
		})
		chaosMu.Lock()
		chaosConns = append(chaosConns, cc)
		chaosMu.Unlock()
		edge := stream.NewTCPEdge(cc)
		return protocol.NewClientOpts(ctx, edge, edge, netw, key, serveFactor, protocol.ClientOptions{
			Workers:  1,
			Window:   clients,
			Deadline: time.Minute,
			Retry:    protocol.RetryPolicy{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
			Registry: clientReg,
		})
	}
	redialer := protocol.NewRedialer(dial, protocol.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}, clientReg)

	inputs := serveInputs(mathrand.New(mathrand.NewSource(29)), requests)

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		jobs = make(chan int)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				_, err := redialer.Infer(ctx, inputs[i])
				mu.Lock()
				switch {
				case err == nil:
					res.Completed++
				case protocol.Retryable(err):
					res.GaveUp++
				default:
					res.Fatal++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(begin)

	// Shutdown: close the client side, stop accepting, tear down every
	// server connection (sessions blocked in Recv unblock on conn close),
	// and wait for the session goroutines.
	redialer.Close()
	ln.Close()
	cancel()
	connMu.Lock()
	for _, c := range conns {
		c.Close()
	}
	connMu.Unlock()
	sessions.Wait()

	client := clientReg.Snapshot().Counters
	server := serverReg.Snapshot().Counters
	res.Retries = client["retry.attempts"]
	res.Redials = client["retry.redials"]
	res.Giveups = client["retry.giveups"]
	res.Shed = server["shed.rejected.total"]
	res.Throttled = server["rounds.errors"]
	chaosMu.Lock()
	for _, cc := range chaosConns {
		st := cc.Stats()
		res.InjectedResets += st.Resets
		res.InjectedDelays += st.Delays
	}
	chaosMu.Unlock()

	// Goroutine settle: client reader goroutines and session workers need
	// a beat to observe closed connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		res.GoroutinesAfter = runtime.NumGoroutine()
		if !res.chaosLeaked() || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	return res, res.validate()
}

// validate is the invariant list a chaos run must satisfy to gate CI:
// no request is lost, no goroutine outlives the run, the injected faults
// were actually retried, and the failure layer let something through.
func (r *ChaosResult) validate() error {
	switch {
	case !r.chaosAccounted():
		return fmt.Errorf("experiments: chaos lost requests: %d completed + %d gave up + %d fatal != %d submitted",
			r.Completed, r.GaveUp, r.Fatal, r.Requests)
	case r.chaosLeaked():
		return fmt.Errorf("experiments: chaos leaked goroutines: %d before, %d after",
			r.GoroutinesBefore, r.GoroutinesAfter)
	case r.Retries == 0 && r.Redials == 0:
		return errors.New("experiments: chaos observed no retries or redials — fault injection is not biting")
	case r.Completed == 0:
		return errors.New("experiments: chaos completed no requests — the failure layer is rejecting everything")
	}
	return nil
}

// Render formats the chaos run's accounting.
func (r *ChaosResult) Render() string {
	header := []string{"requests", "completed", "gave_up", "fatal", "retries", "redials", "shed", "resets", "delays"}
	rows := [][]string{{
		fmt.Sprint(r.Requests), fmt.Sprint(r.Completed), fmt.Sprint(r.GaveUp), fmt.Sprint(r.Fatal),
		fmt.Sprint(r.Retries), fmt.Sprint(r.Redials), fmt.Sprint(r.Shed),
		fmt.Sprint(r.InjectedResets), fmt.Sprint(r.InjectedDelays),
	}}
	return fmt.Sprintf(
		"Chaos: %d requests through injected delays/resets with shedding and throttling in %v\n%s"+
			"accounting: %d+%d+%d == %d, goroutines %d -> %d\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), renderTable(header, rows),
		r.Completed, r.GaveUp, r.Fatal, r.Requests, r.GoroutinesBefore, r.GoroutinesAfter)
}
