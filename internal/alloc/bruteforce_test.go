package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bruteForce returns the optimal objective of a tiny instance by
// enumerating every thread vector up to the largest server capacity and,
// for each one that would improve, every layer→server assignment. It
// returns +Inf when no plan is feasible. It is the oracle for Solve.
func bruteForce(layers []Layer, servers []Server) float64 {
	// free[linear]: threads left across that kind's servers; no feasible
	// plan exceeds it, and no layer takes more than one server's capacity.
	free, ymax := map[bool]int{}, map[bool]int{}
	for _, s := range servers {
		free[s.Model] += s.Capacity()
		ymax[s.Model] = max(ymax[s.Model], s.Capacity())
	}
	best := math.Inf(1)
	threads := make([]int, len(layers))
	assign := make([]int, len(layers))
	var fits func(i int) bool
	fits = func(i int) bool {
		if i == len(layers) {
			used := make([]int, len(servers))
			for k := range layers {
				used[assign[k]] += threads[k]
			}
			for j, u := range used {
				if u > servers[j].Capacity() {
					return false
				}
			}
			return true
		}
		for j, s := range servers {
			if s.Model == layers[i].Linear {
				assign[i] = j
				if fits(i + 1) {
					return true
				}
			}
		}
		return false
	}
	var enumerate func(i int)
	enumerate = func(i int) {
		if i == len(layers) {
			if obj := Imbalance(layers, threads); obj < best && fits(0) {
				best = obj
			}
			return
		}
		linear := layers[i].Linear
		for y := 1; y <= min(ymax[linear], free[linear]); y++ {
			threads[i] = y
			free[linear] -= y
			enumerate(i + 1)
			free[linear] += y
		}
	}
	enumerate(0)
	return best
}

// checkAgainstOracle asserts that Solve returns a valid plan, proven
// optimal, whose objective is brute force's — or fails exactly when
// brute force finds no feasible plan.
func checkAgainstOracle(t *testing.T, layers []Layer, servers []Server) {
	t.Helper()
	want := bruteForce(layers, servers)
	plan, err := Solve(layers, servers)
	if math.IsInf(want, 1) {
		if err == nil {
			t.Fatalf("Solve planned an infeasible instance: %v %v → %+v", layers, servers, plan)
		}
		return
	}
	if err != nil {
		t.Fatalf("Solve(%v, %v): %v", layers, servers, err)
	}
	if err := CheckPlan(layers, servers, plan); err != nil {
		t.Fatalf("invalid plan for %v %v: %v", layers, servers, err)
	}
	if !plan.Exact {
		t.Errorf("search on %d layers did not finish", len(layers))
	}
	if got := Imbalance(layers, plan.Threads); got != plan.Objective {
		t.Errorf("plan objective %v, its threads give %v", plan.Objective, got)
	}
	if math.Abs(plan.Objective-want) > 1e-9*want+1e-12 {
		t.Fatalf("layers %v servers %v: Solve %.12g (threads %v), brute force %.12g",
			layers, servers, plan.Objective, plan.Threads, want)
	}
}

// TestSolveMatchesBruteForce: on seeded random instances of up to six
// layers and one to three servers of each kind, Solve finds brute force's
// optimum. Small integer times make ties and zero-time layers common.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		var servers []Server
		for _, model := range []bool{true, false} {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				servers = append(servers, Server{Name: fmt.Sprint(len(servers)), Model: model, Cores: 1 + rng.Intn(3)})
			}
		}
		layers := make([]Layer, 1+rng.Intn(6))
		for i := range layers {
			layers[i] = Layer{Name: fmt.Sprint(i), Linear: rng.Intn(2) == 0, Time: rng.ExpFloat64()}
			if rng.Intn(2) == 0 {
				layers[i].Time = float64(rng.Intn(9))
			}
		}
		checkAgainstOracle(t, layers, servers)
	}
}

// FuzzSolve checks Solve against the brute-force oracle. shape picks one
// to three servers of each kind with one to three cores each; each byte
// of times is one layer (low bit: linear, the rest: its time).
func FuzzSolve(f *testing.F) {
	f.Add(uint16(0x0f0f), []byte{9, 4, 40, 2})
	f.Add(uint16(0xffff), []byte{0, 1, 255, 254, 7, 6})
	f.Fuzz(func(t *testing.T, shape uint16, times []byte) {
		if len(times) == 0 || len(times) > 6 {
			return
		}
		var servers []Server
		for _, model := range []bool{true, false} {
			for k := 1 + int(shape&3)%3; k > 0; k-- {
				shape >>= 2
				servers = append(servers, Server{Name: fmt.Sprint(len(servers)), Model: model, Cores: 1 + int(shape&3)%3})
			}
			shape >>= 2
		}
		layers := make([]Layer, len(times))
		for i, b := range times {
			layers[i] = Layer{Name: fmt.Sprint(i), Linear: b&1 == 1, Time: float64(b>>1) / 8}
		}
		checkAgainstOracle(t, layers, servers)
	})
}
