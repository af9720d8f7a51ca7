package paillier

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenKeyFile: a key file written by an earlier build still loads,
// as the private key (n, p and q) and as the public key (n). The file is
// gob, which skips a field the reader no longer has and zeroes one the
// file lacks, so removing, renaming or retyping a field of the format
// would otherwise surface only when a persisted key stopped loading. A
// deliberate break of the format replaces the file with hex.Dump of
// SavePrivateKey's output.
func TestGoldenKeyFile(t *testing.T) {
	hexInt := func(s string) *big.Int {
		v, _ := new(big.Int).SetString(s, 16)
		return v
	}
	p, q := hexInt("f00010b69f361e94d607c226b2b49251"), hexInt("e66413e42c24c43d3820adece51a961f")
	n := hexInt("d7fde1b0850fbbefa96100e73ad00a9c44b93743d9c5713693f47c4ac2d32dcf")
	raw := undump(t, filepath.Join("testdata", "key256.gob.hex"))
	sk, err := LoadPrivateKey(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sk.P.Cmp(p) != 0 || sk.Q.Cmp(q) != 0 || sk.N.Cmp(n) != 0 {
		t.Errorf("golden key loads as p=%x q=%x n=%x", sk.P, sk.Q, sk.N)
	}
	pk, err := LoadPublicKey(bytes.NewReader(raw))
	if err != nil || pk.N.Cmp(n) != 0 {
		t.Errorf("golden key loads as public key %v, %v; want n=%x", pk, err, n)
	}
}

// undump reads back a file written with hex.Dump.
func undump(t *testing.T, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		// "00000000  1f 8b ...  |ascii|": the offset, then the bytes.
		digits, _, _ := strings.Cut(line[len("00000000"):], "|")
		b, err := hex.DecodeString(strings.ReplaceAll(digits, " ", ""))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, b...)
	}
	return out
}

func TestPublicKeySerializationRoundTrip(t *testing.T) {
	k := key(t)
	var buf bytes.Buffer
	if err := SavePublicKey(&k.PublicKey, &buf); err != nil {
		t.Fatal(err)
	}
	pk, err := LoadPublicKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pk.N.Cmp(k.N) != 0 || pk.N2.Cmp(k.N2) != 0 {
		t.Error("public key corrupted")
	}
	// The loaded key must encrypt values the original key decrypts.
	ct, err := pk.EncryptInt64(rand.Reader, -777)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptInt64(ct)
	if err != nil || got != -777 {
		t.Errorf("round-trip encryption decrypts to %d (%v)", got, err)
	}
}

func TestPrivateKeySerializationRoundTrip(t *testing.T) {
	k := key(t)
	var buf bytes.Buffer
	if err := SavePrivateKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	sk, err := LoadPrivateKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.PublicKey.EncryptInt64(rand.Reader, 424242)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptInt64(ct)
	if err != nil || got != 424242 {
		t.Errorf("loaded key decrypts to %d (%v)", got, err)
	}
}

func TestLoadKeyRejectsGarbage(t *testing.T) {
	if _, err := LoadPublicKey(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage public key accepted")
	}
	if _, err := LoadPrivateKey(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage private key accepted")
	}
	// public key stream into private loader: must fail (no factors)
	k := key(t)
	var buf bytes.Buffer
	if err := SavePublicKey(&k.PublicKey, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPrivateKey(&buf); err == nil {
		t.Error("factor-less private key accepted")
	}
}

// TestDecryptNoCRTAgrees cross-checks the CRT fast path against the
// textbook decryption.
func TestDecryptNoCRTAgrees(t *testing.T) {
	k := key(t)
	for _, m := range []int64{0, 1, -1, 9999999, -123456789} {
		ct, err := k.PublicKey.EncryptInt64(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := k.DecryptNoCRT(ct)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Cmp(slow) != 0 {
			t.Errorf("m=%d: CRT %v vs textbook %v", m, fast, slow)
		}
	}
	if _, err := k.DecryptNoCRT(nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
}
