package garble

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

func newSetup(t *testing.T) *OTSetup {
	t.Helper()
	st, err := NewOTSetup()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// transferAll runs every transfer of one batch of m random pairs from st
// and fails unless each delivers exactly the chosen label.
func transferAll(t *testing.T, st *OTSetup, m int, rng *rand.Rand) (*ExtSender, *ExtReceiver) {
	t.Helper()
	send, recv, err := tryTransferAll(st, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return send, recv
}

func tryTransferAll(st *OTSetup, m int, rng *rand.Rand) (*ExtSender, *ExtReceiver, error) {
	choice := make([]bool, m)
	pairs := make([][2]Label, m)
	for i := range choice {
		choice[i] = rng.Intn(2) == 1
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
	}
	send, recv, err := st.Extend(m, choice)
	if err != nil {
		return nil, nil, err
	}
	for i := range choice {
		y0, y1, err := send.Transfer(i, pairs[i][0], pairs[i][1])
		if err != nil {
			return nil, nil, err
		}
		got, err := recv.Receive(i, y0, y1)
		if err != nil {
			return nil, nil, err
		}
		want, other := pairs[i][0], pairs[i][1]
		if choice[i] {
			want, other = other, want
		}
		if got != want {
			return nil, nil, fmt.Errorf("batch of %d, transfer %d (choice %v): wrong label", m, i, choice[i])
		}
		// Unmasking the other ciphertext with the receiver's own hash must
		// not give the other label.
		y := y1
		if choice[i] {
			y = y0
		}
		if y.xor(hashTweak(recv.tweak+uint64(i), recv.rows[i])) == other {
			return nil, nil, fmt.Errorf("batch of %d, transfer %d: the receiver unmasks both labels", m, i)
		}
	}
	return send, recv, nil
}

// TestOTExtensionCorrectness: batches of different sizes drawn one after
// another from one setup each deliver exactly the chosen labels.
func TestOTExtensionCorrectness(t *testing.T) {
	st := newSetup(t)
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{200, 1, 64, 513, 256} {
		transferAll(t, st, m, rng)
	}
}

// TestOTSetupNeverReusesBlocksOrTweaks: batches from one setup read
// disjoint, consecutive segments of the PRG streams and take disjoint
// ranges of hash tweaks — and their rows differ, so a batch that re-read
// another's blocks would show even if it recorded fresh ones.
func TestOTSetupNeverReusesBlocksOrTweaks(t *testing.T) {
	st := newSetup(t)
	rng := rand.New(rand.NewSource(29))
	var batches []batch
	for _, m := range []int{300, 1, 256, 257, 40} {
		send, recv := transferAll(t, st, m, rng)
		if send.batch.first != recv.batch.first || send.tweak != recv.tweak {
			t.Fatalf("batch of %d: the endpoints disagree on where it starts", m)
		}
		if want := uint64((m + blockBits - 1) / blockBits); recv.blocks != want {
			t.Errorf("batch of %d read %d blocks, want %d", m, recv.blocks, want)
		}
		batches = append(batches, recv.batch)
	}
	var blocks, tweaks uint64
	for i, b := range batches {
		if b.first != blocks || b.tweak != tweaks {
			t.Errorf("batch %d starts at block %d and tweak %d, want %d and %d", i, b.first, b.tweak, blocks, tweaks)
		}
		blocks, tweaks = blocks+b.blocks, tweaks+uint64(len(b.rows))
		for _, a := range batches[:i] {
			for j := 0; j < min(len(a.rows), len(b.rows)); j++ {
				if a.rows[j] == b.rows[j] {
					t.Fatalf("batches %d and an earlier one share row %d: the PRG blocks were reused", i, j)
				}
			}
		}
	}
	if st.blocks != blocks || st.tweaks != tweaks {
		t.Errorf("setup advanced to block %d and tweak %d, batches used %d and %d", st.blocks, st.tweaks, blocks, tweaks)
	}
}

// TestOTSetupConcurrentExtend: batches extended at once from one setup
// (sessions run several requests at a time) each deliver their labels and
// together take every block and tweak exactly once.
func TestOTSetupConcurrentExtend(t *testing.T) {
	st := newSetup(t)
	const workers, m = 8, 300
	var wg sync.WaitGroup
	got := make([]batch, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, recv, err := tryTransferAll(st, m, rand.New(rand.NewSource(int64(w))))
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = recv.batch
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, b := range got {
		for k := b.first; k < b.first+b.blocks; k++ {
			if seen[k] {
				t.Fatalf("block %d read by two batches", k)
			}
			seen[k] = true
		}
	}
	if st.tweaks != workers*m || len(seen) != int(st.blocks) {
		t.Errorf("setup at tweak %d and block %d after %d batches of %d (%d distinct blocks)", st.tweaks, st.blocks, workers, m, len(seen))
	}
}

func TestOTExtensionValidation(t *testing.T) {
	st := newSetup(t)
	if _, _, err := st.Extend(0, nil); err == nil {
		t.Error("m=0 accepted")
	}
	if _, _, err := st.Extend(3, []bool{true}); err == nil {
		t.Error("choice-length mismatch accepted")
	}
	send, recv, err := st.Extend(2, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	var l Label
	if _, _, err := send.Transfer(5, l, l); err == nil {
		t.Error("out-of-range transfer accepted")
	}
	if _, err := recv.Receive(-1, l, l); err == nil {
		t.Error("out-of-range receive accepted")
	}
}

// TestReLUWithOTExtension runs the full EzPC-style ReLU conversion with
// extended OTs — the configuration the baseline uses at scale — drawing
// every conversion's batch from one setup.
func TestReLUWithOTExtension(t *testing.T) {
	c, err := ReLUShares()
	if err != nil {
		t.Fatal(err)
	}
	st := newSetup(t)
	rng := rand.New(rand.NewSource(17))
	for _, x := range []int64{12345, -12345, 0} {
		g, err := Garble(c)
		if err != nil {
			t.Fatal(err)
		}
		x0 := rng.Uint64()
		x1 := uint64(x) - x0
		r := rng.Uint64()
		gl, err := g.GarblerLabels(nil, append(Bits64(x0), Bits64(-r)...))
		if err != nil {
			t.Fatal(err)
		}
		bits := Bits64(x1)
		send, recv, err := st.Extend(len(bits), bits)
		if err != nil {
			t.Fatal(err)
		}
		el := make([]Label, len(bits))
		for i := range bits {
			m0, m1, err := g.EvalLabelPair(i)
			if err != nil {
				t.Fatal(err)
			}
			y0, y1, err := send.Transfer(i, m0, m1)
			if err != nil {
				t.Fatal(err)
			}
			if el[i], err = recv.Receive(i, y0, y1); err != nil {
				t.Fatal(err)
			}
		}
		out, err := new(Evaluator).Evaluate(c, g.Public(), gl, el)
		if err != nil {
			t.Fatal(err)
		}
		y := int64(FromBits64(out) + r)
		want := x
		if want < 0 {
			want = 0
		}
		if y != want {
			t.Errorf("ReLU(%d) = %d via extension", x, y)
		}
	}
}

// TestUnitTrialsRun: the gate and extension-OT trials run, and write the
// units they were given.
func TestUnitTrialsRun(t *testing.T) {
	var gate, extOT float64
	trials, err := UnitTrials(&gate, &extOT)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if err := tr.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(trials) != 2 || trials[0].Unit != &gate || trials[1].Unit != &extOT {
		t.Fatalf("trials %+v do not write gate and extOT", trials)
	}
}

// TestOTSetupRetainsLittle: what a party pair keeps between batches — the
// receiver's secret seed, the sender's choice bits and its BaseOTs seeds —
// stays far below the 8 KB a session may retain.
func TestOTSetupRetainsLittle(t *testing.T) {
	if size := unsafe.Sizeof(OTSetup{}); size > 8<<10 {
		t.Errorf("an OT setup holds %d bytes", size)
	}
}
