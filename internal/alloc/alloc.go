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
// The paper solves this ILP with Gurobi. Solve finds its optimum by a
// depth-first search over thread vectors: the objective depends on the y_i
// alone, and the servers enter only as a type-pure packing of the y_i,
// checked at the leaves that would improve the plan.
package alloc

import (
	"fmt"
	"math"
	"sort"
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
	// Exact reports whether Solve's search finished, proving the plan
	// optimal (false when its node budget ran out first).
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
			return fmt.Errorf("alloc: layer %s (linear=%v) on server %s (model=%v) violates type purity",
				l.Name, l.Linear, servers[j].Name, servers[j].Model)
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
		var sidx []int
		for j, s := range servers {
			if s.Model == model {
				sidx = append(sidx, j)
			}
		}
		// Round-robin layers over the group's servers, then split each
		// server's capacity evenly among its layers.
		perServer, k := make([][]int, len(sidx)), 0
		for i, l := range layers {
			if l.Linear == model {
				perServer[k%len(sidx)] = append(perServer[k%len(sidx)], i)
				k++
			}
		}
		for si, group := range perServer {
			if len(group) == 0 {
				continue
			}
			cap := servers[sidx[si]].Capacity()
			base, extra := cap/len(group), cap%len(group)
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
	for _, i := range heaviestFirst(layers) {
		best := -1
		for j, s := range servers {
			if s.Model == layers[i].Linear && slots[j] >= 1 && (best < 0 || load[j] < load[best]) {
				best = j
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("alloc: no compatible server with spare capacity for layer %s", layers[i].Name)
		}
		plan.ServerOf[i], plan.Threads[i] = best, 1
		slots[best]--
		load[best] += layers[i].Time
	}
	// Water-fill: repeatedly add a thread to the layer with the largest
	// per-thread time whose server has spare slots, until that makes the
	// balance worse.
	for {
		worst, worstVal := -1, -1.0
		for i := range layers {
			if v := layers[i].Time / float64(plan.Threads[i]); slots[plan.ServerOf[i]] >= 1 && v > worstVal {
				worst, worstVal = i, v
			}
		}
		if worst < 0 {
			break
		}
		before := Imbalance(layers, plan.Threads)
		plan.Threads[worst]++
		if Imbalance(layers, plan.Threads) > before {
			plan.Threads[worst]--
			break
		}
		slots[plan.ServerOf[worst]]--
	}
	plan.Objective = Imbalance(layers, plan.Threads)
	if err := CheckPlan(layers, servers, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

func heaviestFirst(layers []Layer) []int {
	order := make([]int, len(layers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return layers[order[a]].Time > layers[order[b]].Time })
	return order
}

func checkInputs(layers []Layer, servers []Server) error {
	if len(layers) == 0 || len(servers) == 0 {
		return fmt.Errorf("alloc: %d layers on %d servers", len(layers), len(servers))
	}
	have := map[bool]bool{}
	for _, s := range servers {
		if s.Cores <= 0 {
			return fmt.Errorf("alloc: server %s has %d cores", s.Name, s.Cores)
		}
		have[s.Model] = true
	}
	for _, l := range layers {
		if l.Time < 0 || math.IsNaN(l.Time) || math.IsInf(l.Time, 0) {
			return fmt.Errorf("alloc: layer %s has invalid time %v", l.Name, l.Time)
		}
		if !have[l.Linear] {
			return fmt.Errorf("alloc: layer %s (linear=%v) has no server of its kind", l.Name, l.Linear)
		}
	}
	return nil
}
