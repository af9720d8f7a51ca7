package experiments

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"ppstream/internal/paillier"
)

// Fig1Row is one key-size point of the paper's Figure 1 benchmark:
// per-tensor latency of encryption, decryption, homomorphic
// scalar multiplication (constant 10^6), and homomorphic addition over a
// 28×28 tensor. Encrypt is the public-key price the figure reports (one
// r^n mod n² per element); EncryptKeyHolder is what the data provider,
// who holds p and q, pays for the same ciphertext distribution. Replies
// is how many ciphertexts the tensor's elements would take as a protocol
// round's packed reply: the number of blindings and decryptions a round
// of this size costs.
type Fig1Row struct {
	KeyBits          int
	Replies          int
	Encrypt          time.Duration
	EncryptKeyHolder time.Duration
	Decrypt          time.Duration
	ScalarMul        time.Duration
	Add              time.Duration
}

// Fig1Result holds the figure's series. SlotBits is the reply slot width
// of the figure's operation, x + 10^6·x over the figure's pixels 0..255.
type Fig1Result struct {
	TensorElems int
	SlotBits    int
	Rows        []Fig1Row
}

// Fig1 reproduces the homomorphic-encryption benchmark of Figure 1: for
// each key size, encrypt a 28×28 tensor, scalar-multiply it by 10^6, add
// the products to the originals, and decrypt. The chain is run and its
// decryptions checked once; then each step over the whole tensor is one
// paillier.Sweep trial, and a row reports each step's fastest sweep. The
// paper uses MNIST images and 1,000 repetitions with keys up to 2048
// bits; the key sizes are caller-tunable.
func Fig1(keyBits []int) (*Fig1Result, error) {
	if len(keyBits) == 0 {
		keyBits = []int{256, 512, 1024, 2048}
	}
	const elems = 28 * 28
	res := &Fig1Result{TensorElems: elems}
	scalar := big.NewInt(1_000_000)
	// |x + 10^6·x| ≤ (10^6 + 1)·255 over the pixels below; a slot is one
	// bit wider than that.
	res.SlotBits = 1 + big.NewInt(1_000_001*255).BitLen()
	// A synthetic MNIST-like image: pixel values 0..255.
	msgs := make([]*big.Int, elems)
	for i := range msgs {
		msgs[i] = big.NewInt(int64(i * 7 % 256))
	}
	cts := make([]*paillier.Ciphertext, elems)
	prods := make([]*paillier.Ciphertext, elems)
	sums := make([]*paillier.Ciphertext, elems)
	outs := make([]*big.Int, elems)
	// each runs one step over every element of the tensor.
	each := func(step func(i int) error) func() error {
		return func() error {
			for i := range msgs {
				if err := step(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, bits := range keyBits {
		key, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig1 keygen %d: %w", bits, err)
		}
		var enc, encKey, mul, add, dec float64
		steps := []paillier.Trial{
			{Unit: &enc, Ops: 1, Run: each(func(i int) (err error) {
				cts[i], err = key.PublicKey.Encrypt(rand.Reader, msgs[i])
				return err
			})},
			{Unit: &encKey, Ops: 1, Run: each(func(i int) error {
				_, err := key.Encrypt(rand.Reader, msgs[i])
				return err
			})},
			{Unit: &mul, Ops: 1, Run: each(func(i int) (err error) {
				prods[i], err = key.PublicKey.MulScalar(cts[i], scalar)
				return err
			})},
			{Unit: &add, Ops: 1, Run: each(func(i int) error {
				sums[i] = key.PublicKey.Add(cts[i], prods[i])
				return nil
			})},
			{Unit: &dec, Ops: 1, Run: each(func(i int) (err error) {
				outs[i], err = key.Decrypt(sums[i])
				return err
			})},
		}
		// Correctness gate before timing.
		for _, step := range steps {
			if err := step.Run(); err != nil {
				return nil, err
			}
		}
		for i, got := range outs {
			if got.Cmp(new(big.Int).Mul(msgs[i], big.NewInt(1_000_001))) != 0 {
				return nil, fmt.Errorf("experiments: fig1 correctness failure at %d bits", bits)
			}
		}
		if err := paillier.Sweep(steps); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig1Row{
			KeyBits:          bits,
			Replies:          key.PackedLen(elems, res.SlotBits),
			Encrypt:          seconds(enc),
			EncryptKeyHolder: seconds(encKey),
			Decrypt:          seconds(dec),
			ScalarMul:        seconds(mul),
			Add:              seconds(add),
		})
	}
	return res, nil
}

// Render formats the figure's series as text.
func (r *Fig1Result) Render() string {
	header := []string{"key bits", "encrypt/tensor", "key-holder encrypt/tensor", "decrypt/tensor", "scalar-mul/tensor", "add/tensor", "outputs", "reply cts"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.KeyBits),
			row.Encrypt.String(),
			row.EncryptKeyHolder.String(),
			row.Decrypt.String(),
			row.ScalarMul.String(),
			row.Add.String(),
			fmt.Sprint(r.TensorElems),
			fmt.Sprint(row.Replies),
		})
	}
	return fmt.Sprintf("Fig 1: Paillier benchmark (28×28 tensor, scalar 10^6, fastest of the sweeps)\n%sreply cts: the tensor as one protocol round's packed reply (%d-bit slots)\n",
		renderTable(header, rows), r.SlotBits)
}
