package protocol

import (
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestStageCostsAreWhatAWalkMeters: on the benchmark's three models at
// 256 bits (models.Spec.Build() weights, factor 100), what StageCosts
// predicts for the input encryption and every merged stage is exactly what
// a real single-threaded walk with no blinding pool meters, stage by stage
// and field by field — the counts core.NewEngine prices its plan from.
func TestStageCostsAreWhatAWalkMeters(t *testing.T) {
	for _, name := range []string{"Heart", "MNIST-1", "MNIST-2"} {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		proto, err := Build(net, keyOfBits(t, 256), Config{Factor: 100, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		encrypt, merged := proto.StageCosts()
		if len(merged) != len(proto.StageNames) {
			t.Fatalf("%s: %d stage counts for %d merged stages", name, len(merged), len(proto.StageNames))
		}
		check := func(stage string, m *obs.CostMeter, want obs.CostStats) {
			t.Helper()
			if got := m.Snapshot(); got != want {
				t.Errorf("%s %s: metered %+v, predicted %+v", name, stage, got, want)
			}
		}
		var m obs.CostMeter
		env, err := proto.Data.EncryptMetered(1, tensor.Zeros(net.InputShape...), &m)
		if err != nil {
			t.Fatal(err)
		}
		check("encrypt", &m, encrypt)
		for r := 0; r < proto.Rounds(); r++ {
			var lm, nm obs.CostMeter
			if env, _, err = proto.Model.ProcessLinearMetered(r, env, &lm); err != nil {
				t.Fatal(err)
			}
			check(proto.StageNames[2*r], &lm, merged[2*r])
			if env, err = proto.Data.ProcessNonLinearMetered(r, env, &nm); err != nil {
				t.Fatal(err)
			}
			check(proto.StageNames[2*r+1], &nm, merged[2*r+1])
		}
		proto.Model.Forget(1)
	}
}

// TestProvidersShareTheWalksKernelCounts: the walk counts each round's
// kernel and weight multiplications once, and a model provider built from
// it for a key adds only that key's reply terms: Pack's multiplications
// and one inline blinding per reply. Providers for a 256-bit and a 512-bit
// key built from one walk of MNIST-1 both carry the walk's counts, and
// building them leaves the walk's counts as they were.
func TestProvidersShareTheWalksKernelCounts(t *testing.T) {
	spec, err := models.ByName("MNIST-1")
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, sched, rounds, err := walk(net, 100)
	if err != nil {
		t.Fatal(err)
	}
	walked := append([]linearStage(nil), rounds...)
	for _, bits := range []int{256, 512} {
		pk := &keyOfBits(t, bits).PublicKey
		mp, err := newModelProvider(sched, rounds, pk, 1)
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range mp.stages {
			w := walked[r]
			if w.kernel.IsZero() || w.Muls == 0 {
				t.Fatalf("the walk left round %d uncounted", r)
			}
			outs := sched.sched[r].out.Size()
			replies := uint64(pk.PackedLen(outs, st.slotBits))
			want := w.kernel
			want.Add(obs.CostStats{MulMods: pk.PackMulMods(outs, st.slotBits), Rerands: replies, ModExps: replies, PoolMisses: replies})
			if st.kernel != want || st.Muls != w.Muls || uint64(st.replies) != replies {
				t.Errorf("%d bits, round %d: kernel %+v, %d muls, %d replies; want %+v, %d, %d",
					bits, r, st.kernel, st.Muls, st.replies, want, w.Muls, replies)
			}
		}
	}
	for r := range rounds {
		if rounds[r].kernel != walked[r].kernel || rounds[r].Muls != walked[r].Muls || rounds[r].replies != 0 {
			t.Errorf("building providers changed the walk's round %d counts", r)
		}
	}
}
