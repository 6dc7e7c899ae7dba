package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"intellitag/internal/ann"
	"intellitag/internal/mat"
	"intellitag/internal/search"
	"intellitag/internal/serving"
	"intellitag/internal/store"
	"intellitag/internal/textproc"
)

// perLayer lists every per-layer metric of the traced run with its unit and
// how its samples are summarized ("median" for times, "mean" for counts,
// sizes and shares). A metric whose layer a workload never reaches reads 0.
var perLayer = []struct{ name, unit, agg string }{
	{"serving.click_us", "us", "median"},
	{"serving.recommend_us", "us", "median"},
	{"serving.ask_us", "us", "median"},
	{"serving.memo_hit_share", "share", "mean"},
	{"serving.ann_path_share", "share", "mean"},
	{"serving.swap_ms", "ms", "median"},
	{"http.overhead_us", "us", "median"},
	{"http.response_bytes", "B", "mean"},
	{"search.predict_us", "us", "median"},
	{"search.ask_recall_us", "us", "median"},
	{"textproc.tokenize_us", "us", "median"},
	{"textproc.tokens_per_query", "count", "mean"},
	{"ann.search_us", "us", "median"},
	{"ann.build_s", "s", "median"},
	{"ann.recall_at_10", "share", "mean"},
	{"core.score_us", "us", "median"},
	{"core.candidates_per_turn", "count", "mean"},
	{"core.train_s", "s", "median"},
	{"core.train_examples_per_s", "1/s", "median"},
	{"core.finetune_s", "s", "median"},
	{"qamatch.best_us", "us", "median"},
	{"store.append_ns", "ns", "median"},
	{"store.events_per_turn", "count", "mean"},
	{"store.drain_ms", "ms", "median"},
	{"snapshot.commit_ms", "ms", "median"},
	{"snapshot.load_ms", "ms", "median"},
	{"snapshot.version_bytes", "B", "median"},
	{"online.round_s", "s", "median"},
	{"online.sessions_per_round", "count", "median"},
	{"trace.overhead_us_per_turn", "us", "median"},
}

// recallSample measures ann.recall_at_10 on every recallSample-th click: an
// exact scan sorts the whole table, which on large_catalog costs more than
// the rest of a traced turn together.
const recallSample = 128

// layers is what the traced run calls directly, outside the request path,
// to time each layer on a turn's own inputs.
type layers struct {
	index      *search.Index // the served RQ index (read-only calls)
	phrases    []string
	members    map[int][]int  // tenant -> sorted catalog
	scorer     serving.Scorer // a scorer instance the serving tier does not use
	vecs       *mat.Matrix    // the served tag-embedding table
	ann        ann.Retriever  // the benchmark's own index over vecs
	annK       int            // candidates retrieved per request when serving
	minCatalog int            // catalogs below this are scored exhaustively
	matcher    serving.QuestionMatcher
}

// tracer collects the traced run's samples. add is safe for concurrent use
// (daily_refresh records refresh samples from its refresh goroutine).
type tracer struct {
	mu      sync.Mutex
	samples map[string][]float64

	ly     layers
	shadow *serving.ABRouter // engine-level replay target
	log    *store.Log        // the live log, or nil
	priv   *store.Log        // private log for timing appends
	sc     *ann.Scratch
	clicks int

	untraced []int64 // HTTP turn latencies of untraced rounds (ns)
	traced   []int64 // HTTP turn latencies of traced rounds (ns)

	recCalls int64             // recommendation calls issued since stats0, HTTP and engine-level
	engines  []*serving.Engine // engines whose retrieval counters are read
	stats0   serving.RetrievalStats
	roundLog int64 // live-log cursor at the start of the round

	// plainFrom and plainTo bound the live-log events of the last untraced
	// round: the traced run's learner probe trains on them.
	plainFrom, plainTo int64
}

// newTracer starts the traced run's accounting. The caller fills t.ly.
func newTracer(shadow *serving.ABRouter, log *store.Log, engines []*serving.Engine) *tracer {
	t := &tracer{samples: map[string][]float64{}, shadow: shadow, log: log,
		priv: store.NewLog(), sc: ann.NewScratch(), engines: engines}
	t.stats0 = engineStats(engines)
	if log != nil {
		t.roundLog = int64(log.Len())
	}
	return t
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) addDur(name string, d time.Duration, unit time.Duration) {
	t.add(name, float64(d)/float64(unit))
}

func (t *tracer) logLen() int {
	if t.log == nil {
		return 0
	}
	return t.log.Len()
}

// turn records one traced HTTP turn, replays it at the engine level under a
// shadow session id and probes the layers below on the turn's inputs.
func (t *tracer) turn(tn *turn, round int, httpDur time.Duration, respBytes, events int) {
	t.traced = append(t.traced, int64(httpDur))
	t.add("http.response_bytes", float64(respBytes))
	t.add("store.events_per_turn", float64(events))

	ctx := context.Background()
	sid := shadowOffset + 1 + round*1_000_000 + tn.local
	eng := t.shadow.Engine(sid)
	start := time.Now()
	var name string
	switch tn.kind {
	case recCold, recMemo:
		eng.RecommendTags(ctx, tn.tenant, sid, tn.k)
		name = "serving.recommend_us"
		t.recCalls++
	case click:
		eng.Click(ctx, tn.tenant, sid, tn.tag, tn.k)
		name = "serving.click_us"
		t.recCalls++
	case ask:
		eng.Ask(ctx, tn.tenant, sid, tn.question)
		name = "serving.ask_us"
	}
	engDur := time.Since(start)
	t.addDur(name, engDur, time.Microsecond)
	t.addDur("http.overhead_us", httpDur-engDur, time.Microsecond)

	switch {
	case tn.kind == click:
		t.probeClick(tn)
	case tn.kind == ask:
		t.probeAsk(tn.tenant, tn.question)
	}
	if tn.last && tn.kind != ask && tn.question != "" {
		// Workloads without /ask turns: time the ask path once per session
		// on a question of the session's own tenant.
		start := time.Now()
		eng.Ask(ctx, tn.tenant, sid, tn.question)
		t.addDur("serving.ask_us", time.Since(start), time.Microsecond)
		t.probeAsk(tn.tenant, tn.question)
	}
}

// probeClick times the layers under one click: tokenizing the clicked-tag
// query, BM25 predicted questions, ANN retrieval at the serving K, and
// scoring the candidates the serving tier would score.
func (t *tracer) probeClick(tn *turn) {
	ly := &t.ly
	parts := make([]string, len(tn.history))
	for i, tag := range tn.history {
		parts[i] = ly.phrases[tag]
	}
	query := strings.Join(parts, " ")

	start := time.Now()
	toks := textproc.Tokenize(query)
	t.addDur("textproc.tokenize_us", time.Since(start), time.Microsecond)
	t.add("textproc.tokens_per_query", float64(len(toks)))

	start = time.Now()
	ly.index.Search(query, tn.tenant, tn.k)
	t.addDur("search.predict_us", time.Since(start), time.Microsecond)

	members := ly.members[tn.tenant]
	candidates := members
	q := centroidSum(ly.vecs, tn.history)
	start = time.Now()
	hits := ly.ann.SearchInto(t.sc, q, ly.annK, -1)
	t.addDur("ann.search_us", time.Since(start), time.Microsecond)
	if len(members) >= ly.minCatalog {
		var got []int
		for _, h := range hits {
			if i := sort.SearchInts(members, h.ID); i < len(members) && members[i] == h.ID {
				got = append(got, h.ID)
			}
		}
		if len(got) >= tn.k {
			sort.Ints(got)
			candidates = got
		}
	}
	if t.clicks%recallSample == 0 {
		approx := ly.ann.SearchInto(t.sc, q, 10, -1)
		exact := ann.Exact(ly.vecs, q, 10, -1)
		in := map[int]bool{}
		for _, h := range approx {
			in[h.ID] = true
		}
		n := 0
		for _, e := range exact {
			if in[e.ID] {
				n++
			}
		}
		t.add("ann.recall_at_10", float64(n)/float64(len(exact)))
	}
	t.clicks++

	start = time.Now()
	ly.scorer.ScoreCandidates(tn.history, candidates)
	t.addDur("core.score_us", time.Since(start), time.Microsecond)
	t.add("core.candidates_per_turn", float64(len(candidates)))
}

// probeAsk times the /ask recall search and the matcher's pick.
func (t *tracer) probeAsk(tenant int, question string) {
	ly := &t.ly
	start := time.Now()
	hits := ly.index.Search(question, tenant, 10)
	t.addDur("search.ask_recall_us", time.Since(start), time.Microsecond)
	if ly.matcher == nil || len(hits) == 0 {
		return
	}
	subset := make(map[int]bool, len(hits))
	for _, h := range hits {
		subset[h.ID] = true
	}
	start = time.Now()
	ly.matcher.Best(question, subset)
	t.addDur("qamatch.best_us", time.Since(start), time.Microsecond)
}

// endRound times the store layer on the round just served: appending its
// click events to a private log, and draining the live log's new events.
func (t *tracer) endRound(p *plan, round int) {
	var evs []store.Event
	for _, tn := range p.turns {
		if tn.kind == click {
			evs = append(evs, store.Event{Session: p.sid(round, tn.local), Tenant: tn.tenant, Kind: store.EventClick, TagID: tn.tag})
		}
	}
	if len(evs) > 0 {
		start := time.Now()
		for _, e := range evs {
			t.priv.Append(e)
		}
		t.add("store.append_ns", float64(time.Since(start).Nanoseconds())/float64(len(evs)))
	}
	if t.log != nil {
		start := time.Now()
		_, next := t.log.EventsSince(t.roundLog)
		t.addDur("store.drain_ms", time.Since(start), time.Millisecond)
		t.roundLog = next
	}
}

// finish writes every per-layer metric into the report.
func (t *tracer) finish(rep *report) {
	st := engineStats(t.engines)
	comp := computations(st) - computations(t.stats0)
	if t.recCalls > 0 {
		t.add("serving.memo_hit_share", float64(t.recCalls-comp)/float64(t.recCalls))
	}
	if comp > 0 {
		t.add("serving.ann_path_share", float64(st.ANN-t.stats0.ANN)/float64(comp))
	}
	if len(t.untraced) > 0 && len(t.traced) > 0 {
		traced, _ := latencyQuantiles(t.traced)
		untraced, _ := latencyQuantiles(t.untraced)
		t.add("trace.overhead_us_per_turn", traced-untraced)
	}
	for _, m := range perLayer {
		xs := t.samples[m.name]
		v := 0.0
		switch {
		case len(xs) == 0:
		case m.agg == "mean":
			for _, x := range xs {
				v += x
			}
			v /= float64(len(xs))
		default:
			v = median(xs)
		}
		rep.set(m.name, m.unit, v)
	}
}
