package paillier

// This file holds the tensor-wide forms of encryption and decryption — the
// key holder's, who encrypts every activation and decrypts every reply —
// and the pre-kernel scalar evaluation DotScaledRef / MatVecScaledRef.
// The *Ref pair is reference only and has three consumers: the kernel's
// differential tests (kernel_test.go compares ring elements against it),
// BenchmarkMatVecScaledRef, and the baseline column of `ppbench kernel`
// (internal/experiments/kernel.go). Nothing on the serving path calls it.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// CipherTensor is a tensor of Paillier ciphertexts — the encrypted form of
// the data provider's activations that flows through the model provider's
// linear stages.
type CipherTensor = tensor.Tensor[*Ciphertext]

// EncryptTensor encrypts an int64 tensor element-wise as the key holder,
// parallelizing across workers goroutines (0 means GOMAXPROCS). Every
// element gets its own CRT blinding factor drawn inline from random (nil
// means crypto/rand.Reader; see PrivateKey.freshBlinding). Encryption
// dominates the data provider's cost (paper Fig. 1), so this is the
// hottest path on that side. m, when non-nil, receives the crypto-op
// counts of a call that succeeds: per element one encryption, its two
// half-size exponentiations and its two modular multiplications.
func (sk *PrivateKey) EncryptTensor(random io.Reader, t *tensor.Tensor[int64], workers int, m *obs.CostMeter) (*CipherTensor, error) {
	out := tensor.New[*Ciphertext](t.Shape()...)
	in, od := t.Data(), out.Data()
	var firstErr error
	var mu sync.Mutex
	parallelFor(len(in), workers, func(i int) {
		ct, err := sk.Encrypt(random, big.NewInt(in[i]))
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		od[i] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	n := uint64(len(in))
	m.Add(obs.CostStats{Encrypts: n, MulMods: 2 * n, ModExps: 2 * n})
	return out, nil
}

// DecryptTensorBig decrypts a ciphertext tensor to arbitrary-precision
// signed integers in parallel. Linear stages raise plaintext magnitudes
// beyond int64 at large scaling factors, so the protocol uses this
// variant on the data provider.
func DecryptTensorBig(sk *PrivateKey, t *CipherTensor, workers int) (*tensor.Tensor[*big.Int], error) {
	out := tensor.New[*big.Int](t.Shape()...)
	in, od := t.Data(), out.Data()
	var firstErr error
	var mu sync.Mutex
	parallelFor(len(in), workers, func(i int) {
		if in[i] == nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("paillier: nil ciphertext at offset %d", i)
			}
			mu.Unlock()
			return
		}
		v, err := sk.Decrypt(in[i])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		od[i] = v
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// DotScaledRef is the pre-kernel scalar implementation of Eq. (3), kept
// as the reference for differential tests (consumers: the file header).
// It exponentiates each input
// independently (recomputing inverses per weight) and does NOT
// re-randomize its output — its randomness is only inherited from the
// inputs, so it must not be used on ciphertexts that leave the model
// provider.
func DotScaledRef(pk *PublicKey, xs []*Ciphertext, ws []int64, bias int64) (*Ciphertext, error) {
	if len(xs) != len(ws) {
		return nil, fmt.Errorf("paillier: dot length mismatch: %d inputs vs %d weights", len(xs), len(ws))
	}
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("paillier: nil ciphertext at %d", i)
		}
		w := ws[i]
		if w == 0 {
			continue
		}
		var term *big.Int
		if w > 0 {
			term = tmp.Exp(x.c, big.NewInt(w), pk.N2)
		} else {
			inv := new(big.Int).ModInverse(x.c, pk.N2)
			if inv == nil {
				return nil, errors.New("paillier: ciphertext not invertible")
			}
			absW := new(big.Int).Abs(big.NewInt(w))
			term = tmp.Set(inv.Exp(inv, absW, pk.N2))
		}
		acc.Mul(acc, term)
		acc.Mod(acc, pk.N2)
	}
	out := &Ciphertext{c: acc}
	if bias != 0 {
		var err error
		out, err = pk.AddPlain(out, big.NewInt(bias))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MatVecScaledRef is the pre-kernel row-by-row reference layer
// evaluation over DotScaledRef, kept for differential tests and as the
// speedup baseline of BenchmarkMatVecScaledRef. Unblinded — see
// DotScaledRef.
func MatVecScaledRef(pk *PublicKey, w [][]int64, bias []int64, x []*Ciphertext, workers int) ([]*Ciphertext, error) {
	outN := len(w)
	if bias != nil && len(bias) != outN {
		return nil, fmt.Errorf("paillier: bias length %d != rows %d", len(bias), outN)
	}
	out := make([]*Ciphertext, outN)
	var firstErr error
	var mu sync.Mutex
	parallelFor(outN, workers, func(o int) {
		if len(w[o]) != len(x) {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("paillier: row %d length %d != input %d", o, len(w[o]), len(x))
			}
			mu.Unlock()
			return
		}
		var b int64
		if bias != nil {
			b = bias[o]
		}
		ct, err := DotScaledRef(pk, x, w[o], b)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		out[o] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// parallelFor runs f(i) for i in [0,n) across the given number of worker
// goroutines (0 or negative means GOMAXPROCS), blocking until done.
func parallelFor(n, workers int, f func(int)) {
	parallelChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// parallelChunks splits [0,n) into one contiguous chunk per worker
// goroutine (0 or negative means GOMAXPROCS) and runs f(lo, hi) on each,
// blocking until done — for work that wants per-goroutine scratch.
func parallelChunks(n, workers int, f func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}
