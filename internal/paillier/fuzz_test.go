package paillier

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
)

// FuzzPaillierSerializeRoundTrip feeds adversarial bytes to the key
// loaders: they must never panic (the serialized key formats cross
// trust boundaries at session setup), and any key they accept must
// survive a save/load round trip unchanged.
func FuzzPaillierSerializeRoundTrip(f *testing.F) {
	sk, err := GenerateKey(nil, 128)
	if err != nil {
		f.Fatal(err)
	}
	var pubBuf, privBuf bytes.Buffer
	if err := SavePublicKey(&sk.PublicKey, &pubBuf); err != nil {
		f.Fatal(err)
	}
	if err := SavePrivateKey(sk, &privBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(pubBuf.Bytes())
	f.Add(privBuf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the factor size so primality testing of adversarial
		// "primes" stays cheap.
		if len(data) > 512 {
			return
		}
		if pk, err := LoadPublicKey(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := SavePublicKey(pk, &out); err != nil {
				t.Fatalf("re-saving accepted public key: %v", err)
			}
			pk2, err := LoadPublicKey(&out)
			if err != nil {
				t.Fatalf("re-loading saved public key: %v", err)
			}
			if pk2.N.Cmp(pk.N) != 0 {
				t.Fatalf("public key round trip changed n: %v != %v", pk2.N, pk.N)
			}
		}
		if sk2, err := LoadPrivateKey(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := SavePrivateKey(sk2, &out); err != nil {
				t.Fatalf("re-saving accepted private key: %v", err)
			}
			sk3, err := LoadPrivateKey(&out)
			if err != nil {
				t.Fatalf("re-loading saved private key: %v", err)
			}
			if sk3.N.Cmp(sk2.N) != 0 || sk3.P.Cmp(sk2.P) != 0 || sk3.Q.Cmp(sk2.Q) != 0 {
				t.Fatal("private key round trip changed key material")
			}
		}
	})
}

// FuzzKernelRows decodes a small layer from the fuzz input — up to four
// rows over up to four inputs, dense or indexed (repeats allowed), weights
// of any width including math.MinInt64, optional biases — and checks both
// strategies against the big-integer dot product after decryption, and
// against each other ring element for ring element.
//
// Layout: byte 0 picks the input count, byte 1 the row count; each row is
// a flags byte (bit 0 indexed, bit 1 biased, bits 2–3 entries when
// indexed), a bias byte, then per entry a column byte, a width byte and
// eight weight bytes. A short input reads as zeros.
func FuzzKernelRows(f *testing.F) {
	sk, err := GenerateKey(nil, 128)
	if err != nil {
		f.Fatal(err)
	}
	const inputs = 4
	ms := [inputs]int64{3, -1, 0, 7}
	var xs [inputs]*Ciphertext
	for i, m := range ms {
		if xs[i], err = sk.EncryptInt64(nil, m); err != nil {
			f.Fatal(err)
		}
	}
	entry := func(col, width byte, w uint64) []byte {
		return append([]byte{col, width}, binary.LittleEndian.AppendUint64(nil, w)...)
	}
	row := func(flags, bias byte, entries ...[]byte) []byte {
		return append([]byte{flags, bias}, bytes.Join(entries, nil)...)
	}
	layer := func(cols, rows byte, rs ...[]byte) []byte {
		return append([]byte{cols, rows}, bytes.Join(rs, nil)...)
	}
	full := ^uint64(0)
	f.Add([]byte{})
	// One column, one row, weight math.MinInt64.
	f.Add(layer(0, 0, row(0, 0, entry(0, 63, 1<<63))))
	// An all-zero row with a bias, then an all-negative row.
	f.Add(layer(1, 1, row(2, 200, entry(0, 0, 0), entry(0, 0, 0)), row(0, 0, entry(0, 3, full), entry(0, 15, full))))
	// Indexed rows: a repeated column, then an empty row with a bias.
	f.Add(layer(3, 1, row(1|2<<2, 0, entry(2, 3, 5), entry(2, 62, full)), row(1|2, 9)))
	// Weights of 1, 4, 16 and 63 bits in one dense row.
	f.Add(layer(3, 0, row(2, 77, entry(0, 0, 1), entry(0, 3, full), entry(0, 15, 1<<15), entry(0, 62, 1<<62|1))))

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cols := 1 + int(next())%inputs
		rows := make([]Row, 1+int(next())%4)
		want := make([]*big.Int, len(rows))
		for r := range rows {
			flags, bias := next(), int64(int8(next()))
			entries := cols
			if flags&1 != 0 {
				entries = int(flags >> 2 & 3)
				rows[r].Idx = make([]int, entries)
			}
			rows[r].W = make([]int64, entries)
			want[r] = new(big.Int)
			if flags&2 != 0 {
				rows[r].Bias = big.NewInt(bias)
				want[r].SetInt64(bias)
			}
			for j := range rows[r].W {
				col, width := int(next())%cols, next()%64
				var raw [8]byte
				for i := range raw {
					raw[i] = next()
				}
				// Keep the low width+1 bits, sign-extended: every magnitude
				// up to 2^63 is reachable.
				w := int64(binary.LittleEndian.Uint64(raw[:])) << (63 - width) >> (63 - width)
				if rows[r].Idx == nil {
					col = j
				} else {
					rows[r].Idx[j] = col
				}
				rows[r].W[j] = w
				term := new(big.Int).Mul(big.NewInt(w), big.NewInt(ms[col]))
				want[r].Add(want[r], term)
			}
		}
		ev := NewEvaluator(&sk.PublicKey)
		byTables, err := ev.rows(xs[:cols], rows, 1, Tables)
		if err != nil {
			t.Fatalf("tables: %v", err)
		}
		byBuckets, err := ev.rows(xs[:cols], rows, 1, Buckets)
		if err != nil {
			t.Fatalf("buckets: %v", err)
		}
		for r := range rows {
			if byTables[r].c.Cmp(byBuckets[r].c) != 0 {
				t.Fatalf("row %d: strategies disagree on the ring element (%+v)", r, rows[r])
			}
			got, err := sk.Decrypt(byTables[r])
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want[r]) != 0 {
				t.Fatalf("row %d (%+v) decrypts to %s, want %s", r, rows[r], got, want[r])
			}
		}
	})
}

// FuzzModMul multiplies two byte strings reduced into [0, m) through the
// helper, for any modulus of the test set (sel picks it), and through
// Mul+Mod; then squares the result in place.
func FuzzModMul(f *testing.F) {
	ordinary, awkward := testModuli()
	moduli := append(ordinary, awkward...)
	mms := make([]modMul, len(moduli))
	for i, m := range moduli {
		mms[i] = modMul{m: m, mu: reciprocal(m)}
	}
	f.Add(byte(0), []byte{}, []byte{1})
	f.Add(byte(3), bytes.Repeat([]byte{0xff}, 512), bytes.Repeat([]byte{0xff}, 512))
	// n²−1 on the awkward moduli: both operands are 2^k − 1 mod n² there.
	f.Add(byte(4), awkward[0].Bytes(), []byte{0xff, 0xff})
	f.Add(byte(7), bytes.Repeat([]byte{0xfe}, 600), awkward[3].Bytes())
	f.Fuzz(func(t *testing.T, sel byte, ab, bb []byte) {
		if len(ab) > 1024 || len(bb) > 1024 {
			return
		}
		mm := &mms[int(sel)%len(mms)]
		a, b := new(big.Int).SetBytes(ab), new(big.Int).SetBytes(bb)
		a.Mod(a, mm.m)
		b.Mod(b, mm.m)
		got, before := new(big.Int), mm.n
		if mm.mul(got, a, b); got.Cmp(refMul(a, b, mm.m)) != 0 {
			t.Fatalf("%x · %x mod %x = %x, want %x", a, b, mm.m, got, refMul(a, b, mm.m))
		}
		sq := refMul(got, got, mm.m)
		if mm.mul(got, got, got); got.Cmp(sq) != 0 || mm.n != before+2 {
			t.Fatalf("(%x · %x)² mod %x = %x, want %x; counted %d multiplications", a, b, mm.m, got, sq, mm.n-before)
		}
	})
}

// FuzzPackUnpack packs and unpacks a reply at any slot width from 2 to 81
// bits — the range-tight widths the stage walk produces (17–28) and the
// saturated int64 ones (73–80) — with each value at a slot extreme
// ±(2^(W−1) − 1), zero, or arbitrary inside the slot, over full and
// partial groups. Pack → decrypt → Unpack must be the identity.
//
// Layout: byte 0 picks W, byte 1 the count; each value is a selector byte
// (0 +extreme, 1 −extreme, 2 zero, else sign in bit 0) followed, for an
// arbitrary value, by ten magnitude bytes reduced into the slot. A short
// input reads as zeros.
func FuzzPackUnpack(f *testing.F) {
	sk, err := GenerateKey(nil, 128)
	if err != nil {
		f.Fatal(err)
	}
	// MNIST-2's chained widths: all extremes up, all down, alternating
	// over two full groups and a partial one.
	f.Add([]byte{17 - 2, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{23 - 2, 11, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{25 - 2, 10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{77 - 2, 2, 1, 0, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		slotBits := 2 + int(next())%80
		extreme := new(big.Int).Lsh(one, uint(slotBits-1))
		extreme.Sub(extreme, one)
		vals := make([]*big.Int, 1+int(next())%(2*sk.Slots(slotBits)+1))
		for i := range vals {
			switch sel := next(); sel {
			case 0:
				vals[i] = extreme
			case 1:
				vals[i] = new(big.Int).Neg(extreme)
			case 2:
				vals[i] = new(big.Int)
			default:
				var raw [10]byte
				for j := range raw {
					raw[j] = next()
				}
				v := new(big.Int).SetBytes(raw[:])
				v.Mod(v, new(big.Int).Add(extreme, one))
				if sel&1 != 0 {
					v.Neg(v)
				}
				vals[i] = v
			}
		}
		packRoundTrip(t, sk, vals, slotBits)
	})
}
