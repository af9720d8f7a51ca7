package main

import (
	"fmt"
	"math/big"

	"ppstream/internal/paillier"
)

// testPrimes are committed prime pairs (hex), one per modulus size the
// workloads use. They are PUBLISHED IN THE REPOSITORY and therefore
// NEVER FOR PRODUCTION: anyone can decrypt under them. The benchmark
// loads them so that set-up never searches for primes and every modular
// exponentiation costs the same from run to run and commit to commit.
var testPrimes = map[int][2]string{
	256: {
		"ddb0c48fab2ea15942ec1e7cd46b7179",
		"e71e1d13aec075cbee2033d1b82aeee9",
	},
	512: {
		"d9c577ec897ee4259c682b1018251fee54dee6590c5bea3ef2c8665b78a0fc7d",
		"d17d26bccfb48505b5c067fc1e5b12a4e8a857c15a66796581928ffd343743f3",
	},
	1024: {
		"ce2e4b2fcd6d0394618f1274ac2bbc8dc229a4fe35d11a22b8953430db5451c3ffb6433da27c22a6ea0a58d8b14be9340a0bdfacb392846c45af41691c48aaa3",
		"fdf25795b52eff5a23965c6f3e9b35bd66fb3782f0a984aa43368c0fa4e6f5b44b596912f4832f55d9b8719ff5a8a011f2e1f4f467b1a9faf54b9d3758118b57",
	},
}

// testKey loads the committed test key with a modulus of the given size.
func testKey(bits int) (*paillier.PrivateKey, error) {
	pq, ok := testPrimes[bits]
	if !ok {
		return nil, fmt.Errorf("bench: no committed test primes for a %d-bit key", bits)
	}
	p, okP := new(big.Int).SetString(pq[0], 16)
	q, okQ := new(big.Int).SetString(pq[1], 16)
	if !okP || !okQ {
		return nil, fmt.Errorf("bench: malformed committed primes for %d bits", bits)
	}
	key, err := paillier.NewPrivateKeyFromPrimes(p, q)
	if err != nil {
		return nil, fmt.Errorf("bench: loading %d-bit test key: %w", bits, err)
	}
	if key.Bits() != bits {
		return nil, fmt.Errorf("bench: committed %d-bit primes give a %d-bit modulus", bits, key.Bits())
	}
	return key, nil
}
