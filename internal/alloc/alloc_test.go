package alloc

import (
	"math"
	"testing"
)

func fourLayers() []Layer {
	return []Layer{
		{Name: "lin1", Linear: true, Time: 4.0},
		{Name: "non1", Linear: false, Time: 1.0},
		{Name: "lin2", Linear: true, Time: 2.0},
		{Name: "non2", Linear: false, Time: 0.5},
	}
}

func threeServers() []Server {
	return []Server{
		{Name: "m1", Model: true, Cores: 4},
		{Name: "m2", Model: true, Cores: 4},
		{Name: "d1", Model: false, Cores: 4},
	}
}

func TestImbalance(t *testing.T) {
	layers := []Layer{{Time: 4, Linear: true}, {Time: 2, Linear: false}}
	// per-thread times 4 and 2: ordered pairs |4-2| + |2-4| = 4
	if got := Imbalance(layers, []int{1, 1}); got != 4 {
		t.Errorf("Imbalance = %v, want 4", got)
	}
	// 4/2=2 vs 2/1=2: perfectly balanced
	if got := Imbalance(layers, []int{2, 1}); got != 0 {
		t.Errorf("balanced Imbalance = %v, want 0", got)
	}
}

func TestEvenAllocation(t *testing.T) {
	plan, err := Even(fourLayers(), threeServers())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(fourLayers(), threeServers(), plan); err != nil {
		t.Fatal(err)
	}
	// Even ignores T_i: both linear layers get the same thread budget
	// across the two model servers (one each, capacity 8).
	if plan.Threads[0] != plan.Threads[2] {
		t.Errorf("even split gave %d vs %d threads to the linear layers", plan.Threads[0], plan.Threads[2])
	}
}

func TestGreedyRespectsConstraints(t *testing.T) {
	layers := fourLayers()
	servers := threeServers()
	plan, err := Greedy(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(layers, servers, plan); err != nil {
		t.Fatal(err)
	}
	// The slowest layer must end up with at least as many threads as the
	// fastest layer of the same type.
	if plan.Threads[0] < plan.Threads[2] {
		t.Errorf("lin1 (T=4) got %d threads, lin2 (T=2) got %d", plan.Threads[0], plan.Threads[2])
	}
}

func TestSolveBeatsEven(t *testing.T) {
	layers := fourLayers()
	servers := threeServers()
	even, err := Even(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := Solve(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(layers, servers, solved); err != nil {
		t.Fatal(err)
	}
	if solved.Objective > even.Objective+1e-9 {
		t.Errorf("solver objective %v worse than even split %v", solved.Objective, even.Objective)
	}
}

func TestSolveBalancesPerfectlyWhenPossible(t *testing.T) {
	// T = 4 and 2 with ample capacity: y = 2k and k equalizes exactly.
	layers := []Layer{
		{Name: "lin", Linear: true, Time: 4},
		{Name: "non", Linear: false, Time: 2},
	}
	servers := []Server{
		{Name: "m", Model: true, Cores: 2},
		{Name: "d", Model: false, Cores: 2},
	}
	plan, err := Solve(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective > 1e-9 {
		t.Errorf("objective %v, expected perfect balance (threads %v)", plan.Objective, plan.Threads)
	}
	r := layers[0].Time / float64(plan.Threads[0])
	r2 := layers[1].Time / float64(plan.Threads[1])
	if math.Abs(r-r2) > 1e-9 {
		t.Errorf("per-thread times %v vs %v", r, r2)
	}
}

func TestCheckPlanRejects(t *testing.T) {
	layers := fourLayers()
	servers := threeServers()
	good, err := Greedy(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	// type violation: put a linear layer on the data server
	bad := *good
	bad.ServerOf = append([]int(nil), good.ServerOf...)
	bad.ServerOf[0] = 2
	if err := CheckPlan(layers, servers, &bad); err == nil {
		t.Error("type-impure plan accepted")
	}
	// zero threads
	bad2 := *good
	bad2.Threads = append([]int(nil), good.Threads...)
	bad2.Threads[1] = 0
	if err := CheckPlan(layers, servers, &bad2); err == nil {
		t.Error("zero-thread plan accepted")
	}
	// over capacity
	bad3 := *good
	bad3.Threads = append([]int(nil), good.Threads...)
	bad3.Threads[0] = 1000
	if err := CheckPlan(layers, servers, &bad3); err == nil {
		t.Error("over-capacity plan accepted")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Even(nil, threeServers()); err == nil {
		t.Error("no layers accepted")
	}
	if _, err := Even(fourLayers(), nil); err == nil {
		t.Error("no servers accepted")
	}
	onlyModel := []Server{{Name: "m", Model: true, Cores: 2}}
	if _, err := Greedy(fourLayers(), onlyModel); err == nil {
		t.Error("missing data-provider server accepted")
	}
	badTime := []Layer{{Name: "l", Linear: true, Time: math.NaN()}}
	if _, err := Greedy(badTime, threeServers()); err == nil {
		t.Error("NaN time accepted")
	}
}

func TestGreedyCapacityExhaustion(t *testing.T) {
	// 3 linear layers but a single model server with capacity 2.
	layers := []Layer{
		{Name: "a", Linear: true, Time: 1},
		{Name: "b", Linear: true, Time: 1},
		{Name: "c", Linear: true, Time: 1},
		{Name: "n", Linear: false, Time: 1},
	}
	servers := []Server{
		{Name: "m", Model: true, Cores: 1}, // capacity 2 < 3 layers
		{Name: "d", Model: false, Cores: 1},
	}
	if _, err := Greedy(layers, servers); err == nil {
		t.Error("infeasible capacity accepted")
	}
}

func TestLargerInstanceStaysFeasible(t *testing.T) {
	// MNIST-3-like: 5 linear + 4 non-linear stages, Table III servers.
	layers := []Layer{
		{Name: "l1", Linear: true, Time: 3.1},
		{Name: "n1", Linear: false, Time: 0.2},
		{Name: "l2", Linear: true, Time: 5.4},
		{Name: "n2", Linear: false, Time: 0.25},
		{Name: "l3", Linear: true, Time: 1.2},
		{Name: "n3", Linear: false, Time: 0.1},
		{Name: "l4", Linear: true, Time: 0.8},
		{Name: "n4", Linear: false, Time: 0.15},
	}
	servers := []Server{
		{Name: "m1", Model: true, Cores: 6},
		{Name: "m2", Model: true, Cores: 6},
		{Name: "d1", Model: false, Cores: 6},
		{Name: "d2", Model: false, Cores: 6},
	}
	plan, err := Solve(layers, servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(layers, servers, plan); err != nil {
		t.Fatal(err)
	}
	even, _ := Even(layers, servers)
	if plan.Objective > even.Objective {
		t.Errorf("solve %v worse than even %v", plan.Objective, even.Objective)
	}
	if !plan.Exact {
		t.Error("search on 8 layers did not finish")
	}
}
