package backend

// The per-backend cost model. Units are arbitrary but shared — roughly
// "one 64-bit multiply" — so the ILP can compare backends; absolute
// accuracy matters less than ordering, which ppbench backends measures
// against reality. The constants encode the structural facts:
//
//   - A Paillier weight-multiplication is a short modexp (weight-bits
//     modular multiplications over n²). Outputs leave packed, several to
//     a reply ciphertext: each reply ciphertext pays a full-width
//     re-randomization modexp (and a decryption on the other side), which
//     dominates, and each output packed in behind the first pays its
//     slot's worth of squarings. All scale ~quadratically with key size.
//   - A Beaver-triple multiplication is a handful of native 64-bit
//     operations. The ss-gc backend's real expense is the garbled-
//     circuit ReLU that follows a linear round: a fixed base-OT setup
//     per layer plus per-element garbling and OT extensions.
//   - Clear execution is a big-integer multiply-accumulate per weight.
const (
	// paillierPerMul is one ciphertext^weight step at reference key size.
	paillierPerMul = 10
	// paillierPerOut is one reply ciphertext's re-randomization at
	// reference key size.
	paillierPerOut = 3000
	// ssgcPerMul is one Beaver-triple multiplication.
	ssgcPerMul = 0.1
	// ssgcPerOut is per-output share bookkeeping and reconstruction.
	ssgcPerOut = 5
	// gcSetup is the fixed base-OT setup of one garbled ReLU layer.
	gcSetup = 1500
	// gcPerElem is one element's 64-bit comparison circuit: garbling,
	// 64 extension OTs, evaluation.
	gcPerElem = 100
	// clearPerMul is one big-integer multiply-accumulate.
	clearPerMul = 0.02
	// referenceKeyBits anchors the key-size scaling factor.
	referenceKeyBits = 2048
	// penaltyPerOut prices one intermediate value exposed to weaker-
	// than-HE protection before the certified boundary (mixed profile).
	penaltyPerOut = 10
)

// CostShape is the size information the cost model consumes for one
// linear round.
type CostShape struct {
	// Muls counts non-zero weight multiplications.
	Muls int
	// Outs counts output elements.
	Outs int
	// Replies counts the ciphertexts a paillier-he reply carries them in
	// (⌈Outs/slots⌉), and SlotBits the squarings each of the other
	// Outs−Replies outputs costs to be shifted into its slot.
	Replies  int
	SlotBits int
	// KeyBits is the Paillier key size in bits.
	KeyBits int
	// ReluFollows marks a following ReLU stage (ss-gc pays GC there).
	ReluFollows bool
}

// keyFactor scales Paillier costs with key size (modular multiplication
// over n² is ~quadratic in the bit length for these sizes).
func keyFactor(keyBits int) float64 {
	if keyBits <= 0 {
		keyBits = referenceKeyBits
	}
	f := float64(keyBits) / referenceKeyBits
	return f * f
}

// EstimateCost implements LayerBackend.
func (paillierBackend) EstimateCost(c CostShape) float64 {
	packed := float64((c.Outs - c.Replies) * c.SlotBits)
	return (paillierPerMul*(float64(c.Muls)+packed) + paillierPerOut*float64(c.Replies)) * keyFactor(c.KeyBits)
}

// EstimateCost implements LayerBackend.
func (ssgcBackend) EstimateCost(c CostShape) float64 {
	cost := ssgcPerMul*float64(c.Muls) + ssgcPerOut*float64(c.Outs)
	if c.ReluFollows {
		cost += gcSetup + gcPerElem*float64(c.Outs)
	}
	return cost
}

// EstimateCost implements LayerBackend.
func (clearBackend) EstimateCost(c CostShape) float64 {
	return clearPerMul * float64(c.Muls)
}
