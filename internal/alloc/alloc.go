// Package alloc implements PP-Stream's load-balanced resource allocation
// (paper Section IV-C): given the single-thread execution time T_i of each
// merged primitive layer (the paper profiles it; core.NewEngine estimates
// it from exact operation counts) and a set of servers with known core
// counts, it assigns each layer to exactly one server of the matching
// provider and chooses thread counts y_i, minimizing the sum of pairwise
// differences in per-thread execution time Σ|T_i/y_i − T_i'/y_i'|
// subject to
//
//	(5) each layer on exactly one server,
//	(6) servers are type-pure (linear layers on model-provider servers,
//	    non-linear layers on data-provider servers),
//	(7) y_i ≥ 1, and
//	(8) threads per server ≤ 2·cores (hyper-threading).
//
// The exact formulation is the paper's ILP, linearized over enumerated
// thread-count columns and solved with internal/ilp's branch-and-bound.
// A greedy LPT + water-filling pass provides the incumbent and a
// fallback when the node budget expires, mirroring what a production
// deployment does when the solver's offline time box is hit.
package alloc

import (
	"fmt"
	"math"
	"sort"

	"ppstream/internal/ilp"
)

// Layer describes one merged primitive layer for allocation.
type Layer struct {
	// Name is a human-readable identifier.
	Name string
	// Linear is the paper's I_i: true for linear (model provider),
	// false for non-linear (data provider).
	Linear bool
	// Time is the single-thread execution time T_i (seconds per
	// inference).
	Time float64
}

// Server describes one machine available for allocation.
type Server struct {
	Name string
	// Model is true for model-provider servers (hosting linear layers).
	Model bool
	// Cores is the number of physical CPU cores; with hyper-threading
	// the server accepts up to 2·Cores threads (paper Eq. 8).
	Cores int
	// Speed is the server's relative per-thread processing rate
	// (1.0 = baseline; 0 is treated as 1.0). The paper assumes a
	// homogeneous cluster and poses heterogeneity as future work; this
	// extension scales a layer's per-thread time by 1/Speed of its host
	// server in the greedy planner and the plan objective.
	Speed float64
}

// speed returns the server's effective rate.
func (s Server) speed() float64 {
	if s.Speed <= 0 {
		return 1
	}
	return s.Speed
}

// Heterogeneous reports whether any server's speed differs from 1.
func Heterogeneous(servers []Server) bool {
	for _, s := range servers {
		if s.Speed > 0 && s.Speed != 1 {
			return true
		}
	}
	return false
}

// ImbalanceOn computes the Eq. (4) objective with heterogeneous server
// speeds: per-thread times scale by the host's rate.
func ImbalanceOn(layers []Layer, servers []Server, p *Plan) float64 {
	eff := make([]float64, len(layers))
	for i := range layers {
		eff[i] = layers[i].Time / (float64(p.Threads[i]) * servers[p.ServerOf[i]].speed())
	}
	var sum float64
	for i := range eff {
		for j := range eff {
			sum += math.Abs(eff[i] - eff[j])
		}
	}
	return sum
}

// Capacity returns the server's thread capacity.
func (s Server) Capacity() int { return 2 * s.Cores }

// Plan is a resource allocation: layer→server assignment plus thread
// counts.
type Plan struct {
	// ServerOf[i] is the index into the server list for layer i.
	ServerOf []int
	// Threads[i] is y_i.
	Threads []int
	// Objective is Σ_{i,i'} |T_i/y_i − T_i'/y_i'| over ordered pairs.
	Objective float64
	// Exact reports whether the ILP proved optimality (false when the
	// greedy fallback or budget-expired incumbent was used).
	Exact bool
}

// Imbalance computes the paper's Eq. (4) objective for given thread
// counts: the sum over all ordered pairs of |T_i/y_i − T_i'/y_i'|.
func Imbalance(layers []Layer, threads []int) float64 {
	var sum float64
	for i := range layers {
		for j := range layers {
			sum += math.Abs(layers[i].Time/float64(threads[i]) - layers[j].Time/float64(threads[j]))
		}
	}
	return sum
}

// CheckPlan validates a plan against constraints (5)–(8).
func CheckPlan(layers []Layer, servers []Server, p *Plan) error {
	if len(p.ServerOf) != len(layers) || len(p.Threads) != len(layers) {
		return fmt.Errorf("alloc: plan covers %d/%d layers, want %d", len(p.ServerOf), len(p.Threads), len(layers))
	}
	used := make([]int, len(servers))
	for i, l := range layers {
		j := p.ServerOf[i]
		if j < 0 || j >= len(servers) {
			return fmt.Errorf("alloc: layer %d assigned to unknown server %d", i, j)
		}
		if servers[j].Model != l.Linear {
			return fmt.Errorf("alloc: layer %s (linear=%v) on %s server %s violates type purity",
				l.Name, l.Linear, serverKind(servers[j]), servers[j].Name)
		}
		if p.Threads[i] < 1 {
			return fmt.Errorf("alloc: layer %s allocated %d threads, need ≥ 1", l.Name, p.Threads[i])
		}
		used[j] += p.Threads[i]
	}
	for j, u := range used {
		if u > servers[j].Capacity() {
			return fmt.Errorf("alloc: server %s holds %d threads, capacity %d", servers[j].Name, u, servers[j].Capacity())
		}
	}
	return nil
}

func serverKind(s Server) string {
	if s.Model {
		return "model-provider"
	}
	return "data-provider"
}

// Options tunes Solve.
type Options struct {
	// MaxThreads caps the per-layer thread count considered by the ILP
	// (0 = the largest server capacity).
	MaxThreads int
	// MaxNodes is the branch-and-bound budget (0 = 50000).
	MaxNodes int
}

// Even produces the baseline allocation used by the paper's "without
// load-balanced resource allocation" variants (Exp#2/3): CPU cores are
// split evenly across stages of each provider group, ignoring stage
// times. Stages earlier in the list receive the remainder threads, as
// the paper describes.
func Even(layers []Layer, servers []Server) (*Plan, error) {
	if err := checkInputs(layers, servers); err != nil {
		return nil, err
	}
	plan := &Plan{ServerOf: make([]int, len(layers)), Threads: make([]int, len(layers))}
	for _, model := range []bool{true, false} {
		var lidx, sidx []int
		for i, l := range layers {
			if l.Linear == model {
				lidx = append(lidx, i)
			}
		}
		for j, s := range servers {
			if s.Model == model {
				sidx = append(sidx, j)
			}
		}
		if len(lidx) == 0 {
			continue
		}
		// Round-robin layers over the group's servers, then split each
		// server's capacity evenly among its layers.
		perServer := make([][]int, len(sidx))
		for k, li := range lidx {
			perServer[k%len(sidx)] = append(perServer[k%len(sidx)], li)
		}
		for si, group := range perServer {
			if len(group) == 0 {
				continue
			}
			cap := servers[sidx[si]].Capacity()
			base := cap / len(group)
			extra := cap % len(group)
			if base == 0 {
				return nil, fmt.Errorf("alloc: server %s capacity %d cannot host %d layers",
					servers[sidx[si]].Name, cap, len(group))
			}
			for gi, li := range group {
				plan.ServerOf[li] = sidx[si]
				plan.Threads[li] = base
				if gi < extra {
					plan.Threads[li]++
				}
			}
		}
	}
	plan.Objective = Imbalance(layers, plan.Threads)
	if err := CheckPlan(layers, servers, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// Greedy computes a good feasible plan quickly: longest-processing-time
// assignment of layers to the least-loaded matching server, then
// water-filling threads onto the layer with the largest per-thread time
// until capacities are exhausted or imbalance stops improving.
func Greedy(layers []Layer, servers []Server) (*Plan, error) {
	if err := checkInputs(layers, servers); err != nil {
		return nil, err
	}
	plan := &Plan{ServerOf: make([]int, len(layers)), Threads: make([]int, len(layers))}
	load := make([]float64, len(servers))
	slots := make([]int, len(servers))
	for j, s := range servers {
		slots[j] = s.Capacity()
	}
	// LPT: biggest layers first, each to the least-loaded compatible
	// server that still has a free slot.
	order := make([]int, len(layers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return layers[order[a]].Time > layers[order[b]].Time })
	for _, i := range order {
		best := -1
		var bestLoad float64
		for j, s := range servers {
			if s.Model != layers[i].Linear || slots[j] < 1 {
				continue
			}
			// Effective load accounts for heterogeneous speeds: a
			// faster server absorbs more work for the same time.
			effective := (load[j] + layers[i].Time) / s.speed()
			if best < 0 || effective < bestLoad {
				best, bestLoad = j, effective
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("alloc: no compatible server with spare capacity for layer %s", layers[i].Name)
		}
		plan.ServerOf[i] = best
		plan.Threads[i] = 1
		slots[best]--
		load[best] += layers[i].Time
	}
	objective := func() float64 { return ImbalanceOn(layers, servers, plan) }
	// Water-fill: repeatedly add a thread to the layer with the largest
	// effective per-thread time whose server has spare slots.
	for {
		worst, worstVal := -1, -1.0
		for i := range layers {
			if slots[plan.ServerOf[i]] < 1 {
				continue
			}
			v := layers[i].Time / (float64(plan.Threads[i]) * servers[plan.ServerOf[i]].speed())
			if v > worstVal {
				worst, worstVal = i, v
			}
		}
		if worst < 0 {
			break
		}
		before := objective()
		plan.Threads[worst]++
		slots[plan.ServerOf[worst]]--
		if objective() > before {
			// Adding the thread made balance worse and no other layer
			// has a larger per-thread time: stop.
			plan.Threads[worst]--
			slots[plan.ServerOf[worst]]++
			break
		}
	}
	plan.Objective = objective()
	if err := CheckPlan(layers, servers, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// maxExactVars bounds the ILP size Solve attempts exactly; above it the
// greedy + water-filling plan is used. The paper solves its instances
// offline "within a few hours" on Gurobi; this port boxes the solver so
// engine construction stays interactive, which only affects the largest
// (VGG) stage graphs.
const maxExactVars = 600

// Solve computes the load-balanced allocation by solving the paper's ILP
// exactly (branch-and-bound), falling back to the greedy plan if the
// instance exceeds the exact-solve size box or the solver cannot improve
// on greedy within its node budget.
func Solve(layers []Layer, servers []Server, opts Options) (*Plan, error) {
	greedy, err := Greedy(layers, servers)
	if err != nil {
		return nil, err
	}
	if Heterogeneous(servers) {
		// The paper's ILP assumes a homogeneous cluster (heterogeneity
		// is posed as future work); the extension uses the
		// speed-aware greedy planner.
		return greedy, nil
	}
	prob, dec, err := formulate(layers, servers, opts)
	if err != nil {
		return nil, err
	}
	if prob.NumVars() > maxExactVars {
		return greedy, nil
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 5000
	}
	// Seed the search with the greedy objective so branch-and-bound
	// prunes everything that cannot improve on it.
	bound := greedy.Objective + 1e-9
	sol, err := ilp.Solve(prob, ilp.Options{MaxNodes: maxNodes, IncumbentBound: &bound})
	if err != nil {
		return nil, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return greedy, nil
	}
	plan, err := dec(sol.X)
	if err != nil {
		return greedy, nil // decode failure: keep the safe plan
	}
	plan.Exact = sol.Status == ilp.Optimal
	if err := CheckPlan(layers, servers, plan); err != nil {
		return greedy, nil
	}
	if plan.Objective > greedy.Objective+1e-9 {
		return greedy, nil
	}
	return plan, nil
}

func checkInputs(layers []Layer, servers []Server) error {
	if len(layers) == 0 {
		return fmt.Errorf("alloc: no layers")
	}
	if len(servers) == 0 {
		return fmt.Errorf("alloc: no servers")
	}
	var haveModel, haveData bool
	for _, s := range servers {
		if s.Cores <= 0 {
			return fmt.Errorf("alloc: server %s has %d cores", s.Name, s.Cores)
		}
		if s.Model {
			haveModel = true
		} else {
			haveData = true
		}
	}
	for _, l := range layers {
		if l.Time < 0 || math.IsNaN(l.Time) {
			return fmt.Errorf("alloc: layer %s has invalid time %v", l.Name, l.Time)
		}
		if l.Linear && !haveModel {
			return fmt.Errorf("alloc: linear layer %s but no model-provider server", l.Name)
		}
		if !l.Linear && !haveData {
			return fmt.Errorf("alloc: non-linear layer %s but no data-provider server", l.Name)
		}
	}
	return nil
}

// formulate builds the linearized ILP. Variable blocks:
//
//	z[i][t]  binary: layer i uses exactly t threads (t = 1..Ymax)
//	x[i][j]  binary: layer i deployed on server j (compatible only)
//	u[i][j]  integer: threads of layer i counted on server j
//	d[i][i'] continuous: |e_i − e_i'| upper envelope, i < i'
//
// with e_i = Σ_t (T_i/t)·z[i][t]. The objective is 2·Σ_{i<i'} d.
func formulate(layers []Layer, servers []Server, opts Options) (*ilp.Problem, func([]float64) (*Plan, error), error) {
	ymax := opts.MaxThreads
	maxCap := 0
	for _, s := range servers {
		if s.Capacity() > maxCap {
			maxCap = s.Capacity()
		}
	}
	if ymax <= 0 || ymax > maxCap {
		ymax = maxCap
	}
	L := len(layers)
	S := len(servers)

	// variable layout
	nZ := L * ymax
	nX := L * S
	nU := L * S
	nPairs := L * (L - 1) / 2
	n := nZ + nX + nU + nPairs
	zAt := func(i, t int) int { return i*ymax + (t - 1) }
	xAt := func(i, j int) int { return nZ + i*S + j }
	uAt := func(i, j int) int { return nZ + nX + i*S + j }
	dAt := func(p int) int { return nZ + nX + nU + p }

	obj := make([]float64, n)
	pairIdx := map[[2]int]int{}
	{
		p := 0
		for i := 0; i < L; i++ {
			for k := i + 1; k < L; k++ {
				pairIdx[[2]int{i, k}] = p
				obj[dAt(p)] = 2 // ordered-pair objective counts each pair twice
				p++
			}
		}
	}

	upper := make([]float64, n)
	integer := make([]bool, n)
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	for i := 0; i < L; i++ {
		for t := 1; t <= ymax; t++ {
			upper[zAt(i, t)] = 1
			integer[zAt(i, t)] = true
		}
		for j := 0; j < S; j++ {
			upper[xAt(i, j)] = 1
			integer[xAt(i, j)] = true
			upper[uAt(i, j)] = float64(ymax)
			integer[uAt(i, j)] = true
		}
	}

	var cons []ilp.Constraint
	row := func() []float64 { return make([]float64, n) }

	for i := 0; i < L; i++ {
		// Σ_t z = 1 (one thread count chosen)
		c := row()
		for t := 1; t <= ymax; t++ {
			c[zAt(i, t)] = 1
		}
		cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.EQ, RHS: 1})

		// Σ_j x = 1 over compatible servers; incompatible x pinned to 0.
		c = row()
		for j := 0; j < S; j++ {
			if servers[j].Model == layers[i].Linear {
				c[xAt(i, j)] = 1
			} else {
				pin := row()
				pin[xAt(i, j)] = 1
				cons = append(cons, ilp.Constraint{Coeffs: pin, Sense: ilp.EQ, RHS: 0})
				pin2 := row()
				pin2[uAt(i, j)] = 1
				cons = append(cons, ilp.Constraint{Coeffs: pin2, Sense: ilp.EQ, RHS: 0})
			}
		}
		cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.EQ, RHS: 1})

		// Σ_j u_{i,j} = y_i = Σ_t t·z_{i,t}
		c = row()
		for j := 0; j < S; j++ {
			c[uAt(i, j)] = 1
		}
		for t := 1; t <= ymax; t++ {
			c[zAt(i, t)] = -float64(t)
		}
		cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.EQ, RHS: 0})

		for j := 0; j < S; j++ {
			if servers[j].Model != layers[i].Linear {
				continue
			}
			// u ≤ Ymax·x
			c = row()
			c[uAt(i, j)] = 1
			c[xAt(i, j)] = -float64(ymax)
			cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.LE, RHS: 0})
			// u ≥ y − Ymax(1−x)  ⇔  Σ_t t·z − u − Ymax·x ≤ 0 ... rearranged:
			// y − u ≤ Ymax − Ymax·x
			c = row()
			for t := 1; t <= ymax; t++ {
				c[zAt(i, t)] = float64(t)
			}
			c[uAt(i, j)] = -1
			c[xAt(i, j)] = float64(ymax)
			cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.LE, RHS: float64(ymax)})
		}
	}

	// capacity per server: Σ_i u_{i,j} ≤ 2·c_j
	for j := 0; j < S; j++ {
		c := row()
		for i := 0; i < L; i++ {
			c[uAt(i, j)] = 1
		}
		cons = append(cons, ilp.Constraint{Coeffs: c, Sense: ilp.LE, RHS: float64(servers[j].Capacity())})
	}

	// |e_i − e_k| envelope: d ≥ e_i − e_k and d ≥ e_k − e_i with
	// e_i = Σ_t (T_i/t)·z_{i,t}.
	for pair, p := range pairIdx {
		i, k := pair[0], pair[1]
		c1 := row()
		c2 := row()
		for t := 1; t <= ymax; t++ {
			c1[zAt(i, t)] = layers[i].Time / float64(t)
			c1[zAt(k, t)] -= layers[k].Time / float64(t)
			c2[zAt(i, t)] = -layers[i].Time / float64(t)
			c2[zAt(k, t)] += layers[k].Time / float64(t)
		}
		c1[dAt(p)] = -1
		c2[dAt(p)] = -1
		cons = append(cons, ilp.Constraint{Coeffs: c1, Sense: ilp.LE, RHS: 0})
		cons = append(cons, ilp.Constraint{Coeffs: c2, Sense: ilp.LE, RHS: 0})
	}

	prob := &ilp.Problem{Obj: obj, Cons: cons, Upper: upper, Integer: integer}
	decode := func(x []float64) (*Plan, error) {
		plan := &Plan{ServerOf: make([]int, L), Threads: make([]int, L)}
		for i := 0; i < L; i++ {
			plan.Threads[i] = 0
			for t := 1; t <= ymax; t++ {
				if x[zAt(i, t)] > 0.5 {
					plan.Threads[i] = t
					break
				}
			}
			plan.ServerOf[i] = -1
			for j := 0; j < S; j++ {
				if x[xAt(i, j)] > 0.5 {
					plan.ServerOf[i] = j
					break
				}
			}
			if plan.Threads[i] == 0 || plan.ServerOf[i] < 0 {
				return nil, fmt.Errorf("alloc: undecodable solution for layer %d", i)
			}
		}
		plan.Objective = Imbalance(layers, plan.Threads)
		return plan, nil
	}
	return prob, decode, nil
}
