package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKeyBits keeps unit tests fast; correctness is independent of size.
const testKeyBits = 256

var (
	testKeyOnce sync.Once
	testKey     *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	testKeyOnce.Do(func() {
		k, err := GenerateKey(rand.Reader, testKeyBits)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

func TestGenerateKeyValidation(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Error("tiny key accepted")
	}
	if _, err := GenerateKey(rand.Reader, 129); err == nil {
		t.Error("odd key size accepted")
	}
	k := key(t)
	if err := k.PublicKey.Validate(); err != nil {
		t.Errorf("generated key invalid: %v", err)
	}
	if k.Bits() != testKeyBits {
		t.Errorf("Bits = %d, want %d", k.Bits(), testKeyBits)
	}
}

func TestPublicKeyValidate(t *testing.T) {
	var nilPk *PublicKey
	if err := nilPk.Validate(); err == nil {
		t.Error("nil key accepted")
	}
	k := key(t)
	bad := &PublicKey{N: k.N, N2: new(big.Int).Add(k.N2, one)}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched N² accepted")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := key(t)
	for _, m := range []int64{0, 1, -1, 42, -99999, 1 << 40, -(1 << 40)} {
		ct, err := k.PublicKey.EncryptInt64(rand.Reader, m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := k.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got != m {
			t.Errorf("round trip %d -> %d", m, got)
		}
	}
}

func TestEncryptRejectsOversizedMessage(t *testing.T) {
	k := key(t)
	huge := new(big.Int).Rsh(k.N, 1) // exactly n/2: must be rejected
	if _, err := k.PublicKey.Encrypt(rand.Reader, huge); err == nil {
		t.Error("message of magnitude n/2 accepted")
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	k := key(t)
	a, _ := k.PublicKey.EncryptInt64(rand.Reader, 7)
	b, _ := k.PublicKey.EncryptInt64(rand.Reader, 7)
	if a.Value().Cmp(b.Value()) == 0 {
		t.Error("two encryptions of the same message are identical — semantic security broken")
	}
}

// TestHomomorphicAdd verifies paper Eq. (1): m1+m2 = D(E(m1)·E(m2)).
func TestHomomorphicAdd(t *testing.T) {
	k := key(t)
	cases := [][2]int64{{3, 4}, {-5, 9}, {-7, -8}, {0, 123}, {1 << 30, 1 << 30}}
	for _, c := range cases {
		e1, _ := k.PublicKey.EncryptInt64(rand.Reader, c[0])
		e2, _ := k.PublicKey.EncryptInt64(rand.Reader, c[1])
		sum := k.PublicKey.Add(e1, e2)
		got, err := k.DecryptInt64(sum)
		if err != nil {
			t.Fatal(err)
		}
		if got != c[0]+c[1] {
			t.Errorf("Add(%d,%d) = %d", c[0], c[1], got)
		}
	}
}

// TestHomomorphicMulScalar verifies paper Eq. (2): w·m = D(E(m)^w),
// including negative weights.
func TestHomomorphicMulScalar(t *testing.T) {
	k := key(t)
	cases := [][2]int64{{3, 4}, {-5, 9}, {7, -8}, {-3, -11}, {0, 5}, {5, 0}, {1000000, 123}}
	for _, c := range cases {
		w, m := c[0], c[1]
		e, _ := k.PublicKey.EncryptInt64(rand.Reader, m)
		prod, err := k.PublicKey.MulScalarInt64(e, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.DecryptInt64(prod)
		if err != nil {
			t.Fatal(err)
		}
		if got != w*m {
			t.Errorf("MulScalar(%d,%d) = %d, want %d", w, m, got, w*m)
		}
	}
}

func TestAddPlain(t *testing.T) {
	k := key(t)
	e, _ := k.PublicKey.EncryptInt64(rand.Reader, 10)
	for _, add := range []int64{5, -3, 0} {
		c, err := k.PublicKey.AddPlain(e, big.NewInt(add))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := k.DecryptInt64(c)
		if got != 10+add {
			t.Errorf("AddPlain(10,%d) = %d", add, got)
		}
	}
}

func TestRerandomize(t *testing.T) {
	k := key(t)
	e, _ := k.PublicKey.EncryptInt64(rand.Reader, 77)
	r, err := k.PublicKey.Rerandomize(rand.Reader, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value().Cmp(e.Value()) == 0 {
		t.Error("rerandomized ciphertext identical to input")
	}
	got, _ := k.DecryptInt64(r)
	if got != 77 {
		t.Errorf("rerandomize changed plaintext: %d", got)
	}
}

func TestDecryptRejectsBadInput(t *testing.T) {
	k := key(t)
	if _, err := k.Decrypt(nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
	if _, err := k.Decrypt(&Ciphertext{c: new(big.Int).Set(k.N2)}); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
}

func TestNewPrivateKeyFromPrimes(t *testing.T) {
	k := key(t)
	k2, err := NewPrivateKeyFromPrimes(k.P, k.Q)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := k.PublicKey.EncryptInt64(rand.Reader, 31337)
	got, err := k2.DecryptInt64(e)
	if err != nil || got != 31337 {
		t.Errorf("reconstructed key decrypts to %d (%v)", got, err)
	}
	if _, err := NewPrivateKeyFromPrimes(k.P, k.P); err == nil {
		t.Error("p == q accepted")
	}
	if _, err := NewPrivateKeyFromPrimes(big.NewInt(10), k.Q); err == nil {
		t.Error("composite factor accepted")
	}
}

// Property test: the additive homomorphism holds on random int32 pairs.
func TestHomomorphismProperty(t *testing.T) {
	k := key(t)
	f := func(a, b int32) bool {
		ea, err := k.PublicKey.EncryptInt64(rand.Reader, int64(a))
		if err != nil {
			return false
		}
		eb, err := k.PublicKey.EncryptInt64(rand.Reader, int64(b))
		if err != nil {
			return false
		}
		sum, err := k.DecryptInt64(k.PublicKey.Add(ea, eb))
		if err != nil {
			return false
		}
		return sum == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property test: scalar multiplication matches plaintext arithmetic.
func TestScalarMulProperty(t *testing.T) {
	k := key(t)
	f := func(w, m int16) bool {
		e, err := k.PublicKey.EncryptInt64(rand.Reader, int64(m))
		if err != nil {
			return false
		}
		prod, err := k.PublicKey.MulScalarInt64(e, int64(w))
		if err != nil {
			return false
		}
		got, err := k.DecryptInt64(prod)
		if err != nil {
			return false
		}
		return got == int64(w)*int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCiphertextFixedWidthRoundTrip: FillBytes into any width of at least
// ByteLen and ParseCiphertext back is the identity, and CheckCiphertext
// draws the line at n² that ParseCiphertext, which knows no key, cannot.
func TestCiphertextFixedWidthRoundTrip(t *testing.T) {
	k := key(t)
	width := (k.N2.BitLen() + 7) / 8
	for _, m := range []int64{0, 1, -1, 123456789} {
		ct, err := k.EncryptInt64(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if ct.ByteLen() > width {
			t.Fatalf("ByteLen %d exceeds the %d bytes of n²", ct.ByteLen(), width)
		}
		for _, w := range []int{ct.ByteLen(), width, width + 3} {
			b := make([]byte, w)
			ct.FillBytes(b)
			back := ParseCiphertext(b)
			if back.c.Cmp(ct.c) != 0 {
				t.Fatalf("width %d: round trip changed the ring element", w)
			}
			if err := k.CheckCiphertext(back); err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			if got, err := k.DecryptInt64(back); err != nil || got != m {
				t.Fatalf("width %d: decrypts to %d, %v; want %d", w, got, err, m)
			}
		}
	}
	if err := k.CheckCiphertext(ParseCiphertext(k.N2.Bytes())); err == nil {
		t.Error("CheckCiphertext accepted n²")
	}
	if err := k.CheckCiphertext(nil); err == nil {
		t.Error("CheckCiphertext accepted nil")
	}
	if err := k.CheckCiphertext(&Ciphertext{c: big.NewInt(-1)}); err == nil {
		t.Error("CheckCiphertext accepted a negative value")
	}
	if err := k.CheckCiphertext(ParseCiphertext(nil)); err != nil {
		t.Errorf("zero is inside [0, n²): %v", err)
	}
}
