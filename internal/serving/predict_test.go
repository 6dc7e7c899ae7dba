package serving

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"weak"

	"intellitag/internal/obs"
	"intellitag/internal/qamatch"
	"intellitag/internal/search"
	"intellitag/internal/synth"
	"intellitag/internal/textproc"
)

// joinedPhrases is the clicked-tag query as Click defined it before phrase
// terms: every clicked tag's phrase, joined by spaces.
func joinedPhrases(c Catalog, history []int) string {
	parts := make([]string, len(history))
	for i, t := range history {
		parts[i] = c.TagPhrases[t]
	}
	return strings.Join(parts, " ")
}

// checkClicksPredictJoinedQuery clicks random histories and requires every
// click's predicted questions to equal PredictQuestions of the joined phrases.
func checkClicksPredictJoinedQuery(t *testing.T, e *Engine, g *rand.Rand, sessions int) {
	t.Helper()
	c := e.Catalog()
	tenants := make([]int, 0, len(c.TenantTags))
	for tenant := range c.TenantTags {
		tenants = append(tenants, tenant)
	}
	sort.Ints(tenants)
	for s := 0; s < sessions; s++ {
		tenant := tenants[g.Intn(len(tenants))]
		tags := c.TenantTags[tenant]
		sid := 5000 + s
		var history []int
		for n := 1 + g.Intn(8); n > 0; n-- {
			tag := tags[g.Intn(len(tags))]
			if g.Intn(4) == 0 && len(history) > 0 {
				tag = history[g.Intn(len(history))] // a repeated click
			}
			history = append(history, tag)
			k := 1 + g.Intn(8)
			_, got := e.Click(ctx, tenant, sid, tag, k)
			want := e.PredictQuestions(ctx, tenant, joinedPhrases(c, history), k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("history %v (tenant %d, k %d):\n got %+v\nwant %+v", history, tenant, k, got, want)
			}
		}
	}
}

func TestClickPredictsJoinedPhraseQuery(t *testing.T) {
	checkClicksPredictJoinedQuery(t, newTestEngine(t, nil), rand.New(rand.NewSource(3)), 200)
}

// TestClickPredictsJoinedPhraseQueryOddText does the same over phrases and
// RQ texts drawn from case variants, digits, punctuation, non-ASCII letters
// and invalid UTF-8, where a phrase boundary could matter to tokenization.
func TestClickPredictsJoinedPhraseQueryOddText(t *testing.T) {
	g := rand.New(rand.NewSource(9))
	words := []string{"Reset", "reset", "RESET", "vpn", "v2", "42", "支付宝", "ÜBER", "über", "ΣΑΣ",
		"K", "k", "½", "٣", "-", "?", "", "\xff", "\xe4\xb8", " ", "tail\xc3"}
	text := func(n int) string {
		var b strings.Builder
		for ; n > 0; n-- {
			b.WriteString(words[g.Intn(len(words))])
			if g.Intn(3) > 0 {
				b.WriteByte(" ,.-"[g.Intn(4)])
			}
		}
		return b.String()
	}
	const ntags = 40
	c := Catalog{TagPhrases: make([]string, ntags), TenantTags: map[int][]int{}, Popularity: make([]float64, ntags),
		RQAnswers: map[int]string{}}
	for tag := range c.TagPhrases {
		c.TagPhrases[tag] = text(g.Intn(4))
		c.TenantTags[tag%3] = append(c.TenantTags[tag%3], tag)
		c.Popularity[tag] = float64(g.Intn(10))
	}
	index := search.NewIndex()
	for rq := 0; rq < 120; rq++ {
		index.Add(rq, rq%3, text(1+g.Intn(6)))
		c.RQAnswers[rq] = "answer"
	}
	e := NewEngine(c, index, popScorer{scores: c.Popularity}, nil, nil)
	checkClicksPredictJoinedQuery(t, e, g, 200)
}

func TestPhraseTermsEmptyWithoutDocs(t *testing.T) {
	c := Catalog{TagPhrases: []string{"reset password", "vpn"}, TenantTags: map[int][]int{0: {0, 1}},
		Popularity: []float64{1, 2}}
	e := NewEngine(c, search.NewIndex(), popScorer{scores: c.Popularity}, nil, nil)
	v := e.cur.Load()
	if v.phrases.offs != nil || v.phrases.terms != nil {
		t.Fatalf("phrase table over an empty index = %+v, want empty", v.phrases)
	}
	if _, qs := e.Click(ctx, 0, 1, 0, 5); qs == nil || len(qs) != 0 {
		t.Fatalf("questions over an empty index = %#v, want an empty list", qs)
	}
}

// clickStringPathAllocs is Engine.Click's allocations per click on
// TestClickAllocs's fixture before phrase terms, when every click joined its
// history's phrases and tokenized them: 32.9, measured on that engine.
const clickStringPathAllocs = 32.9

// TestClickAllocs pins the term-id click path: on the exhaustive path with
// telemetry installed, a click makes at least 18 fewer allocations than the
// string path did.
func TestClickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths are not stable under -race")
	}
	w := synth.Generate(synth.DefaultConfig())
	train, _, test := w.SplitSessions(0.8, 0.1)
	catalog, index := BuildCatalog(w, train)
	e := NewEngine(catalog, index, popScorer{scores: catalog.Popularity}, nil, nil)
	e.SetTelemetry(obs.NewRegistry(), obs.NewTracer(1<<30, 64))
	sessions := test[:40]
	clicks := 0
	for _, s := range sessions {
		clicks += len(s.Clicks)
	}
	run := func() {
		for i, s := range sessions {
			for _, tag := range s.Clicks {
				e.Click(ctx, s.Tenant, 1000+i, tag, 5)
			}
			e.EndSession(1000 + i)
		}
	}
	run()
	perClick := testing.AllocsPerRun(10, run) / float64(clicks)
	if perClick > clickStringPathAllocs-18 {
		t.Fatalf("Click allocates %.2f times per click, want <= %.1f (string path %.1f - 18)",
			perClick, clickStringPathAllocs-18, clickStringPathAllocs)
	}
	if e.RetrievalStats().Exhaustive == 0 {
		t.Fatal("fixture never took the exhaustive path")
	}
}

// TestConcurrentAskWithMatcher fires concurrent Ask calls at one engine whose
// matcher reranks with a shared encoder. Run under -race it shows the
// encoder's forward buffers are never used by two requests at once; every
// answer must equal the sequential answer to the same question.
func TestConcurrentAskWithMatcher(t *testing.T) {
	e := newTestEngine(t, nil)
	var docs [][]string
	ids := make([]int, len(simWorld.RQs))
	texts := make([]string, len(simWorld.RQs))
	for i, rq := range simWorld.RQs {
		docs = append(docs, textproc.Tokenize(rq.Text))
		ids[i], texts[i] = rq.ID, rq.Text
	}
	m := qamatch.NewMatcher(qamatch.DefaultConfig(), textproc.BuildVocab(docs, 1))
	e.SetMatcher(m.BuildIndex(ids, texts))

	rqs := simWorld.RQs
	if len(rqs) > 24 {
		rqs = rqs[:24]
	}
	want := make([]PredictedQuestion, len(rqs))
	for i, rq := range rqs {
		want[i], _ = e.Ask(ctx, rq.Tenant, 1, rq.Text)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				for i, rq := range rqs {
					if got, _ := e.Ask(ctx, rq.Tenant, 100+w, rq.Text); got != want[i] {
						errs <- rq.Text
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("concurrent Ask(%q) differs from the sequential answer", q)
	}
}

// TestRetiredVersionCollectable memoizes sessions on one version, swaps,
// and requires the retired version to be garbage once drained: the session
// memos that outlive the swap must not keep it reachable.
func TestRetiredVersionCollectable(t *testing.T) {
	e := newTestEngine(t, nil)
	tags := e.Catalog().TenantTags[0]
	for s := 0; s < 32; s++ {
		e.Click(ctx, 0, s, tags[s%len(tags)], 5)
		e.RecommendTags(ctx, 0, s, 5)
	}
	old := weak.Make(e.cur.Load())
	if info := e.Swap(testBundle(t, "v0002", "next", true)); !info.Drained {
		t.Fatal("swap did not drain")
	}
	for i := 0; i < 3 && old.Value() != nil; i++ {
		runtime.GC()
	}
	if old.Value() != nil {
		t.Fatal("retired version still reachable after swap and drain")
	}
	// The sessions are still served, on the new version.
	if recs := e.RecommendTags(ctx, 0, 3, 5); len(recs) == 0 {
		t.Fatal("session lost its recommendations after the swap")
	}
}
