package main

import (
	"fmt"
	"strings"
	"time"

	"intellitag/internal/ann"
	"intellitag/internal/core"
	"intellitag/internal/mat"
	"intellitag/internal/online"
	"intellitag/internal/serving"
	"intellitag/internal/store"
	"intellitag/internal/synth"
)

// supportK is the list length every support_sessions and daily_refresh turn
// asks for.
const supportK = 5

// worldPlan draws n sessions from the world's ground-truth click process:
// tenants in proportion to their size, geometric session lengths (see
// mix.go), the tenant's topical click chains. Each session is a cold-start /recommend, then a /click and a
// /recommend per click; with withAsk it ends with an /ask of a paraphrased
// question about its last clicked tag. Without it the question rides on the
// last turn as the traced run's probe.
func worldPlan(w *synth.World, n int, seed int64, withAsk bool) *plan {
	rng := mat.NewRNG(seed)
	weights := make([]float64, len(w.Tenants))
	for i, t := range w.Tenants {
		weights[i] = t.Size
	}
	rqsOf := map[int][]int{}
	for _, rq := range w.RQs {
		rqsOf[rq.Tenant] = append(rqsOf[rq.Tenant], rq.ID)
	}
	tenants := sessionTenants(weights, n, rng)
	lengths := sessionLengths(w.Config.MeanClicks, w.Config.MaxClicks, n, rng)
	p := &plan{sessions: n}
	for s := 0; s < n; s++ {
		tenant := tenants[s]
		st := w.StartSession(tenant, rng)
		clicks := []int{st.LastClick}
		for len(clicks) < lengths[s] {
			clicks = append(clicks, w.NextClick(&st, rng))
		}
		p.turns = append(p.turns, turn{kind: recCold, tenant: tenant, local: s, k: supportK})
		for i, c := range clicks {
			h := clicks[: i+1 : i+1]
			p.turns = append(p.turns,
				turn{kind: click, tenant: tenant, local: s, tag: c, k: supportK, history: h},
				turn{kind: recMemo, tenant: tenant, local: s, k: supportK, history: h})
		}
		rqs := w.RQsWithTag(tenant, clicks[len(clicks)-1])
		if len(rqs) == 0 {
			rqs = rqsOf[tenant]
		}
		q := w.Paraphrase(rqs[rng.Intn(len(rqs))], rng)
		if withAsk {
			p.turns = append(p.turns, turn{kind: ask, tenant: tenant, local: s, question: q, history: clicks})
		} else {
			p.turns[len(p.turns)-1].question = q
		}
		p.turns[len(p.turns)-1].last = true
	}
	return p
}

// worldChecker verifies responses of the default world against references
// computed in the benchmark.
type worldChecker struct {
	rep      *report
	rig      *worldRig
	ref      serving.Scorer // a separately loaded copy of the served model
	bm       *bm25
	members  map[int]map[int]bool
	pop      []float64 // click counts of the training sessions
	rqTenant []int
	answers  []string
	last     []respTag // the session's last click response
}

func newWorldChecker(rep *report, rig *worldRig, ref serving.Scorer) *worldChecker {
	w := rig.world
	c := &worldChecker{rep: rep, rig: rig, ref: ref, members: map[int]map[int]bool{},
		pop: make([]float64, len(w.Tags)), rqTenant: make([]int, len(w.RQs)), answers: make([]string, len(w.RQs))}
	ids := make([]int, len(w.RQs))
	texts := make([]string, len(w.RQs))
	for i, rq := range w.RQs {
		ids[i], texts[i] = rq.ID, rq.Text
		c.rqTenant[rq.ID] = rq.Tenant
		c.answers[rq.ID] = rq.Answer
	}
	c.bm = newBM25(ids, c.rqTenant, texts)
	for _, t := range w.Tenants {
		set := map[int]bool{}
		for _, tag := range w.TagsOfTenant(t.ID) {
			set[tag] = true
		}
		c.members[t.ID] = set
	}
	for _, s := range rig.train {
		for _, tag := range s.Clicks {
			c.pop[tag]++
		}
	}
	return c
}

// verify checks one response. exact additionally compares click rankings
// with the benchmark's own exhaustive ranking of the reference scorer, and a
// /recommend after a /click with the click's list; both hold only while the
// served model is the one the reference was loaded from.
func (c *worldChecker) verify(i int, t *turn, body []byte, exact bool) {
	at := func(err error) {
		if err != nil {
			c.rep.check(fmt.Errorf("turn %d (%s): %w", i, routes[t.kind], err))
		}
	}
	if t.kind == ask {
		r, err := decodeAsk(body)
		if err != nil {
			at(err)
			return
		}
		at(checkAsk(t.tenant, r, c.rqTenant, c.answers, c.bm.search(t.question, t.tenant, 10)))
		return
	}
	r, err := decodeTags(body)
	if err != nil {
		at(err)
		return
	}
	phrases := c.rig.catalog.TagPhrases
	at(checkRanking(r.Tags, c.members[t.tenant], phrases, t.k))
	catalog := c.rig.catalog.TenantTags[t.tenant]
	switch t.kind {
	case recCold:
		pop := make([]float64, len(catalog))
		for j, tag := range catalog {
			pop[j] = c.pop[tag]
		}
		at(checkTopK(r.Tags, rankScores(catalog, pop, t.k)))
	case click:
		if exact && len(catalog) < serverRetrieval().MinCatalog {
			at(checkTopK(r.Tags, rankScores(catalog, c.ref.ScoreCandidates(t.history, catalog), t.k)))
		}
		parts := make([]string, len(t.history))
		for j, tag := range t.history {
			parts[j] = phrases[tag]
		}
		at(checkQuestions(t.tenant, r.Questions, c.rqTenant, c.bm.search(strings.Join(parts, " "), t.tenant, t.k)))
		c.last = append(c.last[:0], r.Tags...)
	case recMemo:
		if exact {
			at(checkSameTags(r.Tags, c.last))
		}
	}
}

// worldLayers is the traced run's view of a world rig: the served index,
// catalog and matcher, a separately loaded scorer, and the benchmark's own
// ANN index over the served embedding table (its build time is
// ann.build_s).
func worldLayers(tr func(string, float64), rig *worldRig, ref serving.Scorer) layers {
	vecs := rig.model.TagEmbeddings()
	start := time.Now()
	g := ann.BuildGraph(vecs, ann.DefaultGraphConfig())
	tr("ann.build_s", time.Since(start).Seconds())
	tr("core.train_s", rig.trainTime.Seconds())
	tr("core.train_examples_per_s", float64(rig.trainSeqs)/rig.trainTime.Seconds())
	tr("snapshot.commit_ms", float64(rig.commitTime)/float64(time.Millisecond))
	tr("snapshot.version_bytes", float64(rig.versionBytes))
	return layers{
		index: rig.index, phrases: rig.catalog.TagPhrases, members: rig.catalog.TenantTags,
		scorer: ref, vecs: vecs, ann: g, annK: serverRetrieval().K,
		minCatalog: serverRetrieval().MinCatalog, matcher: rig.matcher,
	}
}

// probeLearner times one online-learner round, and its fine-tune and commit
// alone, on the live log's events of the last untraced round.
func probeLearner(tr *tracer, rig *worldRig) error {
	events, _ := rig.log.EventsSince(0)
	replay := store.NewLog()
	for _, e := range events[:tr.plainTo] {
		replay.Append(e)
	}
	lcfg := learnerConfig()
	l := online.NewLearner(replay, rig.snaps, rig.mcfg, lcfg, tr.plainFrom)
	start := time.Now()
	res, err := l.Step(rig.base)
	if err != nil {
		return fmt.Errorf("learner probe: %w", err)
	}
	tr.add("online.round_s", time.Since(start).Seconds())
	tr.add("online.sessions_per_round", float64(len(res.Sessions)))
	return probeFineTune(tr, rig, lcfg, events[tr.plainFrom:tr.plainTo])
}

// runSupport is the support_sessions workload: the paper's user turn on the
// default world, with one refresh half-way that loads a second committed
// snapshot and rolls it across the replicas.
func runSupport(o options) (*report, error) {
	rep := newReport(o.workload)
	rig, setups, err := repeatSetup(o, func(dir string) (*worldRig, error) { return setupWorld(o.scale, dir, true) })
	if err != nil {
		return nil, err
	}
	ref, _, err := core.LoadSnapshotVersion(rig.snaps, rig.base, rig.mcfg)
	if err != nil {
		return nil, fmt.Errorf("load reference model: %w", err)
	}
	// The refresh loads a second committed version of the same model, so
	// every response stays equal to its verified reference across it.
	second, err := core.CommitChildSnapshot(rig.snaps, rig.model, rig.graph, rig.base)
	if err != nil {
		return nil, fmt.Errorf("commit second snapshot: %w", err)
	}

	p := worldPlan(rig.world, o.scale.supportSessions, o.seed, true)
	p.encode()
	run := newRunner(o, rep, p, newClient(rig.srv))
	chk := newWorldChecker(rep, rig, ref)
	run.verify = func(i int) { chk.verify(i, &p.turns[i], run.c.w.body.Bytes(), true) }
	run.reference(true)
	run.verify, chk = nil, nil // every measured response must equal its verified reference

	var tr *tracer
	if o.trace {
		tr = newTracer(rig.router, rig.log, rig.rs.Engines())
		tr.ly = worldLayers(tr.add, rig, ref)
		run.tr = tr
	}

	var refreshes []float64
	refresh := func() error {
		start := time.Now()
		if err := rig.snaps.Verify(second.ID); err != nil {
			return err
		}
		b, err := rig.load(second.ID)
		if err != nil {
			return err
		}
		loaded := time.Now()
		rig.rs.RollingSwap(b, 0)
		end := time.Now()
		refreshes = append(refreshes, end.Sub(start).Seconds())
		rep.check(checkReplicaVersions(rig.rs.Versions(), second.ID))
		if tr != nil {
			tr.addDur("snapshot.load_ms", loaded.Sub(start), time.Millisecond)
			tr.addDur("serving.swap_ms", end.Sub(loaded), time.Millisecond)
		}
		return nil
	}
	if err := run.serveWithRefreshes(run.rounds(supportRound), []float64{0.5}, refresh); err != nil {
		return nil, err
	}
	logPaths(rig.rs.Engines())
	if tr != nil {
		if err := probeLearner(tr, rig); err != nil {
			return nil, err
		}
		tr.finish(rep)
		return rep, nil
	}
	windows := run.m.windows
	run, p = nil, nil // only the served system stays reachable for heap_retained_mib
	rep.endToEnd(windows, setups, refreshes, rig)
	return rep, nil
}
