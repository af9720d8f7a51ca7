package protocol

import (
	"context"
	"errors"
	mathrand "math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/qnn"
	"ppstream/internal/tensor"
)

// TestOversizedWeightRefused: a weight whose w·F does not fit the int32 a
// served weight is held in — 3000 at F = 10⁶ — is refused with the one
// typed error naming the stage, the weight and the factor, by every way
// into a model provider: Build, BuildModelProvider and Serve, which
// refuses before its first accept (a Serve that accepts instead returns
// nil when its context ends). The data provider reads no weight.
func TestOversizedWeightRefused(t *testing.T) {
	const factor = 1_000_000
	r := mathrand.New(mathrand.NewSource(9))
	model, err := nn.NewNetwork("oversized", tensor.Shape{4},
		nn.NewFC("fc1", 4, 3, r), nn.NewReLU("relu1"), nn.NewFC("fc2", 3, 2, r), nn.NewSoftMax("sm"))
	if err != nil {
		t.Fatal(err)
	}
	model.Layers[2].(*nn.FC).W.Set(3000, 1, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	k := key(t)
	_, errBuild := Build(model, k, Config{Factor: factor})
	_, errModel := BuildModelProvider(model, &k.PublicKey, Config{Factor: factor})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	errServe := Serve(ctx, ln, model, SessionConfig{Factor: factor})
	for via, err := range map[string]error{"Build": errBuild, "BuildModelProvider": errModel, "Serve": errServe} {
		var wr *qnn.WeightRangeError
		if !errors.As(err, &wr) {
			t.Errorf("%s = %v, want a *qnn.WeightRangeError", via, err)
			continue
		}
		if wr.Stage != "stage2-linear(fc2)" || wr.Weight != 3000 || wr.Factor != factor {
			t.Errorf("%s: %+v, want stage2-linear(fc2), weight 3000, factor %d", via, wr, factor)
		}
	}
}

// TestWalkHoldsFourBytesAWeight: what a walk of MNIST-1 at factor 100
// leaves reachable from its rounds — what a model provider keeps for as
// long as it serves — is at most 4.5 bytes per weight once the heap is
// collected: each weight is an int32, and nothing of the float network or
// of the walk's scratch stays behind.
func TestWalkHoldsFourBytesAWeight(t *testing.T) {
	spec, err := models.ByName("MNIST-1")
	if err != nil {
		t.Fatal(err)
	}
	model, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	weights := 0
	for _, l := range model.Layers {
		if fc, ok := l.(*nn.FC); ok {
			weights += fc.W.Size()
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties what sync.Pools kept through the first
	runtime.ReadMemStats(&before)
	_, _, rounds, err := walk(model, 100)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rounds)
	runtime.KeepAlive(model)
	perWeight := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(weights)
	t.Logf("%d weights, %.2f B per weight reachable from the rounds", weights, perWeight)
	if perWeight > 4.5 {
		t.Errorf("the walked rounds hold %.2f B per weight, want at most 4.5", perWeight)
	}
}
