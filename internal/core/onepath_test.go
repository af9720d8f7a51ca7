package core

import (
	"context"
	mathrand "math/rand"
	gonet "net"
	"testing"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestOneServingPath: the engine and a two-party deployment are one
// serving path. The same inputs through core.Engine.Submit and through a
// protocol.Client over a loopback TCP session to protocol.Serve give
// bit-identical outputs, and each request meters the same encryptions,
// decryptions, modular multiplications and inversions on both.
func TestOneServingPath(t *testing.T) {
	const factor = 100
	cases := []struct {
		model   string
		profile backend.Profile
	}{
		{"Heart", backend.ProfilePrivacyMax},
		{"Heart", backend.ProfileMixed},
		{"MNIST-2", backend.ProfilePrivacyMax},
	}
	for _, tc := range cases {
		t.Run(tc.model+"/"+string(tc.profile), func(t *testing.T) {
			spec, err := models.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			net, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			r := mathrand.New(mathrand.NewSource(71))
			inputs := make([]*tensor.Dense, 2)
			for i := range inputs {
				inputs[i] = tensor.Zeros(net.InputShape...)
				for j := range inputs[i].Data() {
					inputs[i].Data()[j] = r.Float64()
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			eng, err := NewEngine(net, key(t), Options{Factor: factor, Profile: tc.profile, ClearBoundary: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// A round split over more threads meters more kernel work (each
			// share builds its own tables), and the TCP session runs every
			// stage on the one thread its Hello asks for: pin the engine's
			// stages to one thread too, so the counts compare.
			for r := 0; r < eng.Protocol.Rounds(); r++ {
				if err := eng.Protocol.Model.SetStageThreads(r, 1); err != nil {
					t.Fatal(err)
				}
				if err := eng.Protocol.Data.SetStageThreads(r, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Serve(ctx); err != nil {
				t.Fatal(err)
			}
			engOut := make([]*tensor.Dense, len(inputs))
			for i, x := range inputs {
				if engOut[i], _, err = eng.Submit(ctx, x); err != nil {
					t.Fatal(err)
				}
			}
			// The per-request costs ride on the client's traces, which
			// InferStream returns as they are.
			again, stats, err := eng.InferStream(ctx, inputs)
			if err != nil {
				t.Fatal(err)
			}

			ln, err := gonet.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := gonet.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			served := make(chan error, 1)
			go func() {
				served <- protocol.Serve(ctx, ln, net, protocol.SessionConfig{Factor: factor, Profile: tc.profile, ClearBoundary: 2})
			}()
			edge := stream.NewTCPEdge(conn)
			client, err := protocol.NewClientOpts(ctx, edge, edge, net, key(t), factor, protocol.ClientOptions{Workers: 1, Profile: tc.profile})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range inputs {
				out, tree, err := client.InferTraced(ctx, x)
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.AllClose(out, engOut[i], 0) || !tensor.AllClose(out, again[i], 0) {
					t.Errorf("input %d: TCP session %v, engine Submit %v, InferStream %v", i, out.Data(), engOut[i].Data(), again[i].Data())
				}
				if got, want := counts(tree), counts(stats.Traces[i]); got != want {
					t.Errorf("input %d: TCP session metered %+v, engine %+v", i, got, want)
				}
			}
			client.Close()
			ln.Close()
			if err := <-served; err != nil {
				t.Errorf("TCP server: %v", err)
			}
		})
	}
}

// opCounts is what TestOneServingPath compares of a request's cost.
type opCounts struct{ encrypts, decrypts, mulmods, modinverses uint64 }

func counts(tree *obs.TraceTree) opCounts {
	c := tree.Cost()
	return opCounts{c.Encrypts, c.Decrypts, c.MulMods, c.ModInverses}
}
