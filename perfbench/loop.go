package main

import (
	"fmt"
	"math"
	"time"
)

// runner replays a plan's rounds through one client and accounts for them.
type runner struct {
	o   options
	rep *report
	p   *plan
	c   *client
	m   meter

	// verify fully checks turn i's response, which is in c.w. It runs on
	// every turn of the reference round and on sampled measured turns.
	verify func(i int)
	// hashes holds the reference round's response fingerprints. Workloads
	// whose responses are a function of the turn alone (the served model
	// does not change content across refreshes) compare every measured
	// response against them; nil disables the comparison.
	hashes []uint64
	// sampleEvery fully verifies every sampleEvery-th turn of a measured
	// round (0 disables).
	sampleEvery int

	tr *tracer // non-nil in the traced run
}

func newRunner(o options, rep *report, p *plan, c *client) *runner {
	return &runner{o: o, rep: rep, p: p, c: c}
}

// rounds is the number of measured rounds of a run: one per nominal round
// time of the measuring time, at least two. A run does a fixed amount of
// work rather than running for a wall-clock budget, because the retained
// heap grows with every session served (the API has no way to end one) and
// every refresh (each session's memo keeps the version it was ranked on
// reachable); it must not follow machine speed. nominal is what one round
// took on the reference machine, so there the measured phase lasts about
// --seconds.
func (r *runner) rounds(nominal time.Duration) int {
	return max(2, int(math.Round(r.o.seconds/nominal.Seconds())))
}

// reference serves round 0 with every response fully verified and, when
// keepHashes is set, fingerprinted for the measured rounds.
func (r *runner) reference(keepHashes bool) {
	r.p.setRound(0)
	if keepHashes {
		r.hashes = make([]uint64, len(r.p.slots))
	}
	for i := range r.p.slots {
		r.c.do(&r.p.slots[i])
		r.rep.attempted++
		if !r.c.ok() {
			r.rep.failed++
			continue
		}
		r.verify(i)
		if keepHashes {
			r.hashes[i] = r.c.hash()
		}
	}
}

// round serves one measured round. In the traced run odd rounds are traced:
// each turn is also replayed at the engine level and its layers probed.
func (r *runner) round(n int) {
	r.p.setRound(n)
	traced := r.tr != nil && n%2 == 1
	var from int
	if r.tr != nil {
		from = r.tr.logLen()
	}
	for i := range r.p.slots {
		var before int
		if traced {
			before = r.tr.logLen()
		}
		d := r.c.do(&r.p.slots[i])
		r.rep.attempted++
		r.m.record(d)
		switch {
		case !r.c.ok():
			r.rep.failed++
		case r.hashes != nil && r.c.hash() != r.hashes[i]:
			r.rep.checkf("round %d turn %d: response differs from the verified reference response", n, i)
		case r.sampleEvery > 0 && i%r.sampleEvery == 0:
			r.verify(i)
		}
		if r.tr == nil {
			continue
		}
		if k := r.p.turns[i].kind; k != ask {
			r.tr.recCalls++ // every /click and /recommend ranks once, or hits the memo
		}
		if traced {
			r.tr.turn(&r.p.turns[i], n, d, r.c.w.body.Len(), r.tr.logLen()-before)
		} else {
			r.tr.untraced = append(r.tr.untraced, int64(d))
		}
	}
	switch {
	case traced:
		r.tr.endRound(r.p, n)
	case r.tr != nil:
		r.tr.plainFrom, r.tr.plainTo = int64(from), int64(r.tr.logLen())
	}
}

// serveWithRefreshes runs the measured rounds, calling refresh between
// rounds once each listed share of the rounds has been served. Refreshes run
// on the client goroutine outside the meter's windows.
func (r *runner) serveWithRefreshes(rounds int, at []float64, refresh func() error) error {
	next := 0
	for n := 1; n <= rounds; n++ {
		r.m.start()
		r.round(n)
		r.m.stop()
		for next < len(at) && float64(n) >= at[next]*float64(rounds) {
			if err := refresh(); err != nil {
				return fmt.Errorf("refresh %d: %w", next, err)
			}
			next++
		}
	}
	return nil
}
