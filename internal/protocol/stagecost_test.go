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
