package alloc

import (
	"math"
	"slices"
	"sort"
)

// maxWork bounds Solve's search at maxWork/L² nodes for L layers, since a
// node's bounds sum up to ~L²/4 terms. Every Table III model up to MNIST-3
// finishes inside half of it at up to 45 cores; the 32–44-stage VGG graphs
// do not, and keep the best plan found (never worse than Greedy's).
const maxWork = 2_000_000

// Solve computes the load-balanced allocation: the thread vector and
// server assignment minimizing Eq. (4) under constraints (5)–(8). It is a
// depth-first search over thread counts, heaviest layer first, seeded with
// Greedy's plan. Plan.Exact reports whether the search finished.
func Solve(layers []Layer, servers []Server) (*Plan, error) {
	greedy, err := Greedy(layers, servers)
	if err != nil {
		return nil, err
	}
	L := len(layers)
	s := &search{layers: layers, servers: servers, order: heaviestFirst(layers), ub: make([]int, L),
		lows: make([][]float64, L), rem: map[bool]int{}, left: map[bool]int{},
		threads: make([]int, L), done: make([]float64, 0, L), best: greedy}
	maxCap := map[bool]int{}
	for _, sv := range servers {
		s.rem[sv.Model] += sv.Capacity()
		maxCap[sv.Model] = max(maxCap[sv.Model], sv.Capacity())
	}
	for _, l := range layers {
		s.left[l.Linear]++
	}
	for i, l := range layers {
		s.ub[i] = min(maxCap[l.Linear], s.rem[l.Linear]-s.left[l.Linear]+1)
	}
	for d := range s.order {
		for _, u := range s.order[d+1:] {
			s.lows[d] = append(s.lows[d], layers[u].Time/float64(s.ub[u]))
		}
		sort.Float64s(s.lows[d])
	}
	s.dfs(0, 0)
	s.best.Exact = s.nodes <= maxWork/(L*L)
	return s.best, nil
}

// search holds the state of one Solve. Objective sums inside it run over
// unordered pairs, half of Plan.Objective.
type search struct {
	layers    []Layer
	servers   []Server
	order     []int        // layer indices, heaviest T first
	ub        []int        // per layer: its kind's largest server, less a thread for each other layer of the kind
	lows      [][]float64  // lows[d]: sorted T/ub of order[d+1:], lower bounds on their e
	rem, left map[bool]int // per kind: free threads, layers not yet given threads
	threads   []int
	done      []float64 // sorted e = T/y of the layers given threads
	best      *Plan
	nodes     int
}

// limit is what a leaf's unordered imbalance must come in under to improve
// on the best plan.
func (s *search) limit() float64 { return s.best.Objective / 2 * (1 - 1e-9) }

// dfs gives threads to order[d:], the layers before it having threads
// whose unordered pairwise imbalance is partial.
func (s *search) dfs(d int, partial float64) {
	if s.nodes++; s.nodes*len(s.order)*len(s.order) > maxWork {
		return
	}
	if d == len(s.order) {
		if serverOf, ok := s.pack(); ok {
			threads := slices.Clone(s.threads)
			s.best = &Plan{ServerOf: serverOf, Threads: threads, Objective: Imbalance(s.layers, threads)}
		}
		return
	}
	i := s.order[d]
	T, k := s.layers[i].Time, s.layers[i].Linear
	hi := min(s.ub[i], s.rem[k]-s.left[k]+1)
	// Among optimal plans take one with the fewest threads. Eq. (4) as a
	// function of e_i alone is convex and falls until e_i reaches the lower
	// median of the other layers' e, and fewer threads never pack worse, so
	// in that plan one thread fewer would lift e_i above that median. The
	// median of the settled e and of the least e each later layer can reach
	// is at most it, which caps y_i at ⌈T_i/m⌉ for that median m.
	if L := len(s.order); L > 1 {
		if c := math.Ceil(T / kth(s.done, s.lows[d], (L-2)/2)); c < float64(hi) {
			hi = max(1, int(c))
		}
	}
	// A child adds Σ|e_i − e_j| over the settled layers to partial, at
	// least e_i's distance to each later layer's e range, and at least rest
	// among the later layers. Both sums are convex in e_i, which rises as y
	// falls: once a child that cannot improve is no better than the one
	// before it, no smaller y can improve either.
	rest := s.bound(d + 1)
	prev := math.Inf(1)
	s.left[k]--
	for y := hi; y >= 1; y-- {
		e := T / float64(y)
		add := sumAbs(s.done, e)
		near := add + s.reach(d+1, e)
		if partial+near+rest < s.limit() {
			at := sort.SearchFloat64s(s.done, e)
			s.done = slices.Insert(s.done, at, e)
			s.threads[i], s.rem[k] = y, s.rem[k]-y
			s.dfs(d+1, partial+add)
			s.done, s.rem[k] = slices.Delete(s.done, at, at+1), s.rem[k]+y
		} else if near >= prev {
			break
		}
		prev = near
	}
	s.left[k]++
}

// kth returns the k-th smallest (from 0) of the union of sorted a and b.
func kth(a, b []float64, k int) float64 {
	for ; ; k-- {
		if len(a) == 0 || len(b) > 0 && b[0] < a[0] {
			a, b = b, a
		}
		if k == 0 {
			return a[0]
		}
		a = a[1:]
	}
}

// bound is a lower bound on what order[d:] add against the settled
// layers: each one's best single e against them.
func (s *search) bound(d int) float64 {
	if len(s.done) == 0 {
		return 0
	}
	var lb float64
	med := s.done[(len(s.done)-1)/2]
	for _, u := range s.order[d:] {
		// Σ|e − e_j| is convex in e with its minimum at the median, and
		// e = T/y falls with y, so the best y is next to T/med.
		T, y := s.layers[u].Time, s.ub[u]
		if r := T / med; r < float64(y) {
			y = max(1, int(r))
		}
		lb += min(sumAbs(s.done, T/float64(y)), sumAbs(s.done, T/float64(y+1)))
	}
	return lb
}

// reach is the least Σ|e − e_u| the layers order[d:] can add against e.
func (s *search) reach(d int, e float64) float64 {
	var sum float64
	for _, u := range s.order[d:] {
		T := s.layers[u].Time
		sum += max(0, T/float64(s.ub[u])-e, e-T)
	}
	return sum
}

func sumAbs(xs []float64, e float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Abs(e - x)
	}
	return sum
}

// pack places each kind's threads on that kind's servers within capacity,
// largest first, or reports that they do not fit. At each step it tries
// one server of each distinct free capacity.
func (s *search) pack() ([]int, bool) {
	serverOf := make([]int, len(s.layers))
	free := make([]int, len(s.servers))
	for j, sv := range s.servers {
		free[j] = sv.Capacity()
	}
	var place func(items []int) bool
	place = func(items []int) bool {
		if len(items) == 0 {
			return true
		}
		i, tried := items[0], map[int]bool{}
		for j, sv := range s.servers {
			if sv.Model != s.layers[i].Linear || free[j] < s.threads[i] || tried[free[j]] {
				continue
			}
			tried[free[j]] = true
			free[j] -= s.threads[i]
			serverOf[i] = j
			if place(items[1:]) {
				return true
			}
			free[j] += s.threads[i]
		}
		return false
	}
	for _, linear := range []bool{true, false} {
		items := slices.DeleteFunc(slices.Clone(s.order), func(i int) bool { return s.layers[i].Linear != linear })
		slices.SortStableFunc(items, func(a, b int) int { return s.threads[b] - s.threads[a] })
		if !place(items) {
			return nil, false
		}
	}
	return serverOf, true
}
