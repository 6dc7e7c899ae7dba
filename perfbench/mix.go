package main

import (
	"math"
	"sort"

	"intellitag/internal/mat"
)

// The session mix of a round is fixed by the workload, not drawn: how many
// sessions each tenant gets and how long sessions are follow the
// distributions exactly (largest-remainder counts, evenly spaced quantiles),
// and the seed shuffles them and draws everything else. With the mix drawn
// per seed, the share of long sessions or of large tenants alone moved the
// timed metrics of one seed against another by several percent.

// quotas splits n sessions over weights by largest remainder.
func quotas(weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	q := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		q[i] = int(exact)
		left -= q[i]
		rems[i] = rem{i, exact - float64(q[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for j := 0; j < left; j++ {
		q[rems[j].i]++
	}
	return q
}

// sessionTenants lists n session tenants in the exact shares of weights,
// shuffled by rng.
func sessionTenants(weights []float64, n int, rng *mat.RNG) []int {
	var out []int
	for t, c := range quotas(weights, n) {
		for j := 0; j < c; j++ {
			out = append(out, t)
		}
	}
	shuffle(out, rng)
	return out
}

// sessionLengths lists n session lengths at evenly spaced quantiles of the
// geometric distribution with the given mean, capped at maxLen, shuffled by
// rng.
func sessionLengths(mean float64, maxLen, n int, rng *mat.RNG) []int {
	p := 1 / mean
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		// P(len <= k) = 1 - (1-p)^k
		k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
		out[i] = min(max(k, 1), maxLen)
	}
	shuffle(out, rng)
	return out
}

func shuffle(xs []int, rng *mat.RNG) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
