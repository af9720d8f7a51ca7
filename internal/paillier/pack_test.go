package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// packRoundTrip encrypts vals one per ciphertext without blinding (as
// kernel rows arrive), packs, unpacks and compares.
func packRoundTrip(t *testing.T, sk *PrivateKey, vals []*big.Int, slotBits int) *CipherTensor {
	t.Helper()
	rows := make([]*Ciphertext, len(vals))
	for i, v := range vals {
		ct, err := sk.encryptWithBlinding(v, big.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = ct
	}
	packed, err := NewEvaluator(&sk.PublicKey).Pack(rows, slotBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sk.Slots(slotBits)
	if want := (len(vals) + s - 1) / s; packed.Size() != want || sk.PackedLen(len(vals), slotBits) != want {
		t.Fatalf("%d values at %d per ciphertext packed into %d (PackedLen %d), want %d", len(vals), s, packed.Size(), sk.PackedLen(len(vals), slotBits), want)
	}
	got, err := sk.Unpack(packed, slotBits, len(vals), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.AtFlat(i).Cmp(v) != 0 {
			t.Fatalf("slot %d of %d: got %s, want %s", i, len(vals), got.AtFlat(i), v)
		}
	}
	return packed
}

// TestPackUnpackProperty: at the benchmark's key sizes, pack → decrypt →
// unpack is the identity over slot values at ±bound, all-negative,
// all-zero and mixed, with a partial last group, and with slots so wide
// that only one fits (S = 1 is the same code).
func TestPackUnpackProperty(t *testing.T) {
	const slotBits = 77
	for _, bits := range []int{256, 512, 1024} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		s := sk.Slots(slotBits)
		if want := map[int]int{256: 3, 512: 6, 1024: 13}[bits]; s != want {
			t.Fatalf("%d-bit key holds %d slots of %d bits, want %d", bits, s, slotBits, want)
		}
		// The largest magnitude a 77-bit slot is sized for: 2^76 − 1.
		bound := new(big.Int).Lsh(one, slotBits-1)
		bound.Sub(bound, one)
		neg := new(big.Int).Neg(bound)
		cases := map[string]func(i int) *big.Int{
			"plus-bound":   func(int) *big.Int { return bound },
			"minus-bound":  func(int) *big.Int { return neg },
			"zero":         func(int) *big.Int { return new(big.Int) },
			"all-negative": func(i int) *big.Int { return big.NewInt(int64(-1 - i)) },
			"alternating": func(i int) *big.Int {
				if i%2 == 0 {
					return bound
				}
				return neg
			},
		}
		for name, gen := range cases {
			// 2S+1 values: two full groups and a last group of one.
			for _, count := range []int{1, s, 2*s + 1} {
				t.Run(fmt.Sprintf("%d/%s/%d", bits, name, count), func(t *testing.T) {
					vals := make([]*big.Int, count)
					for i := range vals {
						vals[i] = gen(i)
					}
					packRoundTrip(t, sk, vals, slotBits)
				})
			}
		}
		t.Run(fmt.Sprintf("%d/one-slot", bits), func(t *testing.T) {
			wide := bits/2 + 1 // more than half the plaintext: S = 1
			if sk.Slots(wide) != 1 {
				t.Fatalf("Slots(%d) = %d, want 1", wide, sk.Slots(wide))
			}
			edge := new(big.Int).Lsh(one, uint(wide-1))
			edge.Sub(edge, one)
			packed := packRoundTrip(t, sk, []*big.Int{edge, new(big.Int).Neg(edge), new(big.Int)}, wide)
			if packed.Size() != 3 {
				t.Fatalf("S = 1 packed 3 values into %d ciphertexts", packed.Size())
			}
		})
	}
}

// TestPackBlindsAndCounts: packing the same unblinded rows twice gives
// different ciphertexts (each group draws a fresh factor), and the meter
// sees one re-randomization per packed ciphertext plus the shift
// squarings and the offset/blind multiplies as modular multiplications.
func TestPackBlindsAndCounts(t *testing.T) {
	k := key(t)
	const slotBits = 40
	s := k.Slots(slotBits)
	rows := make([]*Ciphertext, s+2)
	for i := range rows {
		rows[i], _ = k.encryptWithBlinding(big.NewInt(int64(i)), big.NewInt(1))
	}
	var m obs.CostMeter
	ev := NewEvaluator(&k.PublicKey, WithCostMeter(&m))
	a, err := ev.Pack(rows, slotBits, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	// Group 0 shifts S−1 rows in, group 1 (two rows) one; every group pays
	// the offset and the blinding multiply.
	want := obs.CostStats{
		Rerands: 2, ModExps: 2, PoolMisses: 2,
		MulMods: uint64((s-1)*(slotBits+1) + 2 + (slotBits + 1) + 2),
	}
	if st != want {
		t.Fatalf("pack cost = %+v, want %+v", st, want)
	}
	b, err := ev.Pack(rows, slotBits, 1)
	if err != nil {
		t.Fatal(err)
	}
	for g := range a.Data() {
		if a.AtFlat(g).c.Cmp(b.AtFlat(g).c) == 0 {
			t.Fatalf("packed ciphertext %d identical across two packs: not re-randomized", g)
		}
	}
}

// TestPackUnpackReject covers what neither side may accept: slots the key
// cannot hold, nil rows, a reply of the wrong length, and a plaintext
// that reaches past its group's slots (nothing Pack produces).
func TestPackUnpackReject(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey)
	row, _ := k.Encrypt(rand.Reader, big.NewInt(5))
	for _, w := range []int{0, -3, k.Bits() - 1} {
		if _, err := ev.Pack([]*Ciphertext{row}, w, 1); err == nil {
			t.Errorf("Pack accepted %d-bit slots", w)
		}
		if _, err := k.Unpack(tensor.MustFromSlice([]*Ciphertext{row}, 1), w, 1, 1); err == nil {
			t.Errorf("Unpack accepted %d-bit slots", w)
		}
	}
	if _, err := ev.Pack([]*Ciphertext{row, nil}, 40, 1); err == nil {
		t.Error("Pack accepted a nil row")
	}
	if _, err := ev.Pack(nil, 40, 1); err == nil {
		t.Error("Pack accepted no rows")
	}
	packed, err := ev.Pack([]*Ciphertext{row, row}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Unpack(packed, 40, 2*k.Slots(40), 1); err == nil {
		t.Error("Unpack accepted too few ciphertexts for the count")
	}
	if _, err := k.Unpack(packed, 40, -1, 1); err == nil {
		t.Error("Unpack accepted a negative count")
	}
	// Two slots are filled; reading it as one slot leaves bits above it.
	if _, err := k.Unpack(packed, 40, 1, 1); err == nil {
		t.Error("Unpack accepted a plaintext wider than its slots")
	}
	neg, _ := k.Encrypt(rand.Reader, big.NewInt(-1))
	if _, err := k.Unpack(tensor.MustFromSlice([]*Ciphertext{neg}, 1), 40, 1, 1); err == nil {
		t.Error("Unpack accepted a negative packed plaintext")
	}
}
