package main

import (
	"math/big"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// each of them changes speed on its own: a fixed piece of arithmetic takes
// anything from 1× to 2× its usual time, for a fraction of a second or for
// minutes, with no steal time booked to the guest. Raw wall-clock numbers
// of identical code therefore differ by a third between runs a minute
// apart, which no ten-percent bound can hold.
//
// So the untraced pass carries a yardstick. Between requests the caller
// runs a burst of fixed work — modular exponentiations from the standard
// library, the same kind of arithmetic that is ≥ 94 % of every request,
// and none of this repository's code, so that a change to the program
// cannot move it. A request's time is then divided by how slow the bursts
// around it ran against refNominal. What is reported is the time the
// request would have taken with the host undisturbed; on an undisturbed
// host the divisor is 1 and the reported time is the clocked one. The
// process is confined to one processor (pin_linux.go), so bursts and
// requests meet the same conditions.

const (
	// refNominal is how long one burst takes on this kind of host when
	// nothing disturbs it (quiet runs average 1.00–1.02 of it).
	// It only fixes the scale of the reported numbers; comparisons between
	// two commits on the same host do not depend on it.
	refNominal = 7200 * time.Microsecond
	// refExps is how many exponentiations make one burst.
	refExps = 4
	// refShare is the part of its time the caller spends in bursts.
	refShare = 0.10
	// refMargin widens the stretch around a request or a set-up whose
	// bursts gauge it, so that a short request still has several.
	refMargin = 200 * time.Millisecond
)

// Fixed operands of the size heart-seq encrypts with: a 2048-bit odd
// modulus (the size of n² under a 1024-bit key) and a 1024-bit exponent.
var refBase, refExponent, refModulus = func() (b, e, m *big.Int) {
	one := big.NewInt(1)
	m = new(big.Int).Lsh(one, 2048)
	m.Sub(m, big.NewInt(159))
	b = new(big.Int).Lsh(big.NewInt(3), 2040)
	b.Add(b, big.NewInt(12345))
	e = new(big.Int).Lsh(one, 1023)
	e.Add(e, big.NewInt(0x5555))
	return b, e, m
}()

// burst is one run of the fixed work: when it ended, counted from the
// yardstick's start, and how long it took.
type burst struct {
	at, took time.Duration
}

// yardstick collects the bursts of one run, in the order they ran. One
// goroutine uses it.
type yardstick struct {
	start  time.Time
	bursts []burst
	// allocPerBurst is how many heap bytes one burst allocates, so that
	// the program's allocations can be told from the yardstick's.
	allocPerBurst uint64
}

func newYardstick() *yardstick {
	y := &yardstick{}
	const probe = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probe; i++ {
		y.burst()
	}
	runtime.ReadMemStats(&after)
	y.allocPerBurst = (after.TotalAlloc - before.TotalAlloc) / probe
	y.start, y.bursts = time.Now(), nil
	return y
}

// since is the yardstick's clock.
func (y *yardstick) since(t time.Time) time.Duration { return t.Sub(y.start) }

// burst does the fixed work and records it.
func (y *yardstick) burst() time.Duration {
	t0 := time.Now()
	var z big.Int
	for i := 0; i < refExps; i++ {
		z.Exp(refBase, refExponent, refModulus)
	}
	end := time.Now()
	y.bursts = append(y.bursts, burst{at: y.since(end), took: end.Sub(t0)})
	return end.Sub(t0)
}

// pace runs bursts until the caller has spent refShare of its time in
// them, and at least one; it returns the updated burst time. busy is the
// time the caller has spent in requests so far and inBursts in bursts.
func (y *yardstick) pace(busy, inBursts time.Duration) time.Duration {
	for {
		inBursts += y.burst()
		if float64(inBursts) >= refShare*float64(busy+inBursts) {
			return inBursts
		}
	}
}

// slowdown is how much slower than refNominal the host ran between from
// and to (on the yardstick's clock): the mean of the bursts that ended
// within refMargin of that stretch, over refNominal. The mean, not the
// median: a host that withholds the processor a fifth of the time in
// slices stretches a long request by a quarter, and few bursts by much,
// which only their mean reflects. With no burst in reach it is 1.
func (y *yardstick) slowdown(from, to time.Duration) float64 {
	lo := sort.Search(len(y.bursts), func(i int) bool { return y.bursts[i].at >= from-refMargin })
	var sum time.Duration
	n := 0
	for _, b := range y.bursts[lo:] {
		if b.at > to+refMargin {
			break
		}
		sum += b.took
		n++
	}
	if n == 0 {
		return 1
	}
	return float64(sum) / float64(n) / float64(refNominal)
}
