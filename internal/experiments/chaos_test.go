package experiments

import (
	"strings"
	"testing"
)

// TestChaosSmoke runs the fault-injection harness once and lets its own
// invariants gate: full request accounting, observed retries/redials, no
// goroutine leaks. Under -race this covers the whole failure layer —
// admission gate, retry loop, redialer, chaos conn — concurrently.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness in -short mode")
	}
	res, err := Chaos(quickCfg())
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Render())
	}
	if res.Completed == 0 || !res.chaosAccounted() {
		t.Errorf("accounting: %+v", res)
	}
	t.Log("\n" + res.Render())
}

// TestChaosValidate: one row per invariant the gate decides on, over
// synthetic accounting, so each condition fails a unit test rather than
// only a CI run of the harness.
func TestChaosValidate(t *testing.T) {
	healthy := ChaosResult{
		Requests: 24, Completed: 20, GaveUp: 3, Fatal: 1,
		Retries: 7, Redials: 2,
		GoroutinesBefore: 10, GoroutinesAfter: 11,
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*ChaosResult)
		wantErr string // substring; "" = the run passes
	}{
		{"healthy", func(*ChaosResult) {}, ""},
		{"lost request", func(r *ChaosResult) { r.Completed-- }, "lost requests"},
		{"request counted twice", func(r *ChaosResult) { r.GaveUp++ }, "lost requests"},
		{"leaked goroutines", func(r *ChaosResult) { r.GoroutinesAfter = r.GoroutinesBefore + chaosGoroutineSlack + 1 }, "leaked goroutines"},
		{"goroutines within slack", func(r *ChaosResult) { r.GoroutinesAfter = r.GoroutinesBefore + chaosGoroutineSlack }, ""},
		{"no retries or redials", func(r *ChaosResult) { r.Retries, r.Redials = 0, 0 }, "no retries or redials"},
		{"redials alone count", func(r *ChaosResult) { r.Retries = 0 }, ""},
		{"nothing completed", func(r *ChaosResult) { r.Completed, r.GaveUp = 0, 23 }, "completed no requests"},
	} {
		r := healthy
		tc.mutate(&r)
		checkVerdict(t, tc.name, r.validate(), tc.wantErr)
	}
}

// checkVerdict compares a gate's verdict against the expected failure.
func checkVerdict(t *testing.T, name string, err error, wantErr string) {
	t.Helper()
	switch {
	case wantErr == "" && err != nil:
		t.Errorf("%s: gate failed: %v", name, err)
	case wantErr != "" && err == nil:
		t.Errorf("%s: gate passed, want an error containing %q", name, wantErr)
	case wantErr != "" && !strings.Contains(err.Error(), wantErr):
		t.Errorf("%s: gate failed with %q, want an error containing %q", name, err, wantErr)
	}
}
