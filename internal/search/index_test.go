package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"
)

func seededIndex() *Index {
	ix := NewIndex()
	ix.Add(0, 0, "how to change password")
	ix.Add(1, 0, "how to cancel order")
	ix.Add(2, 1, "apply for etc card")
	ix.Add(3, 1, "what is the initial vpn password")
	return ix
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	ix := seededIndex()
	hits := ix.Search("change password", -1, 10)
	if len(hits) == 0 || hits[0].ID != 0 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchTenantFilter(t *testing.T) {
	ix := seededIndex()
	hits := ix.Search("password", 1, 10)
	for _, h := range hits {
		if d, _ := ix.Get(h.ID); d.Tenant != 1 {
			t.Fatalf("tenant filter leaked doc %d", h.ID)
		}
	}
	if len(hits) != 1 || hits[0].ID != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchTopK(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 20; i++ {
		ix.Add(i, 0, "shared term document")
	}
	hits := ix.Search("shared", -1, 5)
	if len(hits) != 5 {
		t.Fatalf("got %d hits, want 5", len(hits))
	}
}

func TestSearchEmptyQueryAndIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.Search("anything", -1, 5); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
	ix.Add(0, 0, "text")
	if got := ix.Search("   ", -1, 5); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := seededIndex()
	if got := ix.Search("zzzunknown", -1, 5); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestBM25PrefersRarerTerms(t *testing.T) {
	ix := NewIndex()
	// "common" appears everywhere; "rare" in one doc.
	for i := 0; i < 10; i++ {
		ix.Add(i, 0, "common filler text")
	}
	ix.Add(10, 0, "common rare text")
	hits := ix.Search("common rare", -1, 3)
	if hits[0].ID != 10 {
		t.Fatalf("rare-term doc not first: %v", hits)
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, 0, "password")
	ix.Add(1, 0, "password and a very long trailing explanation about many other things entirely")
	hits := ix.Search("password", -1, 2)
	if hits[0].ID != 0 {
		t.Fatalf("short doc should rank first: %v", hits)
	}
}

func TestAddReplaces(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, 0, "old topic")
	ix.Add(0, 0, "new subject")
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if hits := ix.Search("old", -1, 5); len(hits) != 0 {
		t.Fatal("stale posting survived replace")
	}
	if hits := ix.Search("new", -1, 5); len(hits) != 1 {
		t.Fatal("replacement not searchable")
	}
}

func TestGet(t *testing.T) {
	ix := seededIndex()
	d, ok := ix.Get(2)
	if !ok || d.Text != "apply for etc card" {
		t.Fatalf("Get = %+v, %v", d, ok)
	}
	if _, ok := ix.Get(99); ok {
		t.Fatal("Get(99) should miss")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := NewIndex()
	ix.Add(5, 0, "same words here")
	ix.Add(2, 0, "same words here")
	hits := ix.Search("same words", -1, 2)
	if hits[0].ID != 2 || hits[1].ID != 5 {
		t.Fatalf("tie break not by id: %v", hits)
	}
}

func TestConcurrentAddSearch(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ix.Add(base*100+j, base%2, fmt.Sprintf("doc number %d about topic %d", j, base))
				ix.Search("topic", -1, 5)
			}
		}(i)
	}
	wg.Wait()
	if ix.Len() != 400 {
		t.Fatalf("Len = %d, want 400", ix.Len())
	}
}

// refTokenize and refIndex are the string-keyed BM25 index as it was before
// term ids: the query is tokenized per call and scored through maps, then
// every hit is sorted. The term-id index must reproduce its hits and scores
// bit for bit.
func refTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

type refDoc struct {
	tenant int
	tokens []string
	counts map[string]int
}

type refIndex struct {
	docs     map[int]*refDoc
	postings map[string][]int
	totalLen int
	k1, b    float64
}

func newRefIndex() *refIndex {
	return &refIndex{docs: map[int]*refDoc{}, postings: map[string][]int{}, k1: 1.2, b: 0.75}
}

func (ix *refIndex) add(id, tenant int, text string) {
	tokens := refTokenize(text)
	counts := map[string]int{}
	for _, t := range tokens {
		counts[t]++
	}
	if old, ok := ix.docs[id]; ok {
		ix.totalLen -= len(old.tokens)
		for term := range old.counts {
			list := ix.postings[term]
			for i, d := range list {
				if d == id {
					ix.postings[term] = append(list[:i], list[i+1:]...)
					break
				}
			}
			if len(ix.postings[term]) == 0 {
				delete(ix.postings, term)
			}
		}
	}
	ix.docs[id] = &refDoc{tenant: tenant, tokens: tokens, counts: counts}
	ix.totalLen += len(tokens)
	for term := range counts {
		ix.postings[term] = append(ix.postings[term], id)
	}
}

func (ix *refIndex) search(query string, tenant, k int) []Hit {
	terms := refTokenize(query)
	if len(ix.docs) == 0 || len(terms) == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(len(ix.docs))
	scores := map[int]float64{}
	seenTerm := map[string]bool{}
	for _, term := range terms {
		if seenTerm[term] {
			continue
		}
		seenTerm[term] = true
		ids := ix.postings[term]
		if len(ids) == 0 {
			continue
		}
		idf := math.Log(1 + (float64(len(ix.docs))-float64(len(ids))+0.5)/(float64(len(ids))+0.5))
		for _, id := range ids {
			d := ix.docs[id]
			if tenant >= 0 && d.tenant != tenant {
				continue
			}
			tf := float64(d.counts[term])
			dl := float64(len(d.tokens))
			scores[id] += idf * tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgLen))
		}
	}
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hits := make([]Hit, 0, len(ids))
	for _, id := range ids {
		hits = append(hits, Hit{ID: id, Score: scores[id]})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// words is the vocabulary random documents and queries draw from: repeated
// stems in several cases, digits, non-ASCII letters, case-folding specials,
// separators and invalid UTF-8.
var words = []string{"password", "Password", "PASSWORD", "order", "cancel", "refund", "vpn", "etc",
	"card", "how", "to", "the", "a", "42", "v2", "x9y", "支付宝", "Ünïcode", "ünïcode", "ΣΑΣ", "σας",
	"İd", "\u212aelvin", "kelvin", "½", "٣", "café", "\xff", "\xe4\xb8", "-", "?", ".", ",", " ", "\u00a0", "\ufffd"}

func randomText(g *rand.Rand, maxWords int) string {
	var b strings.Builder
	for n := g.Intn(maxWords + 1); n > 0; n-- {
		b.WriteString(words[g.Intn(len(words))])
		switch g.Intn(4) {
		case 0:
			b.WriteString("-")
		case 1:
			b.WriteString(words[g.Intn(len(words))]) // glued: a new compound term
		default:
			b.WriteString(" ")
		}
	}
	return b.String()
}

func sameHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Exact float comparison: the scores must be the same additions in
		// the same order, not merely close.
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func TestSearchMatchesReference(t *testing.T) {
	g := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ix, ref := NewIndex(), newRefIndex()
		ndocs := 1 + g.Intn(60)
		for i := 0; i < ndocs; i++ {
			id, tenant, text := g.Intn(ndocs+10), g.Intn(3), randomText(g, 12)
			ix.Add(id, tenant, text)
			ref.add(id, tenant, text)
		}
		for q := 0; q < 200; q++ {
			query := randomText(g, 8)
			if g.Intn(5) == 0 {
				query += " zzzunknown " + query // unknown and repeated terms
			}
			tenant, k := g.Intn(4)-1, g.Intn(12)-1
			got, want := ix.Search(query, tenant, k), ref.search(query, tenant, k)
			if !sameHits(got, want) {
				t.Fatalf("trial %d: Search(%q, %d, %d)\n got %v\nwant %v", trial, query, tenant, k, got, want)
			}
			terms := ix.AppendTerms(nil, query)
			if got := ix.SearchTerms(terms, tenant, k); !sameHits(got, want) {
				t.Fatalf("trial %d: SearchTerms(%q, %d, %d)\n got %v\nwant %v", trial, query, tenant, k, got, want)
			}
		}
	}
}

func TestSearchTermsConcatenatesRuns(t *testing.T) {
	ix := seededIndex()
	a := ix.AppendTerms(nil, "Change the PASSWORD")
	ab := ix.AppendTerms(a, "password, cancel order zzz")
	// "the" is known (doc 3); "zzz" is not. A run drops its own repeats but
	// keeps a term an earlier run already has.
	if len(a) != 3 || len(ab) != 6 || ab[3] != a[2] {
		t.Fatalf("runs = %v then %v; want 3 known terms, then password, cancel, order", a, ab)
	}
	want := ix.Search("Change the PASSWORD password, cancel order zzz", 0, 10)
	if got := ix.SearchTerms(ab, 0, 10); !sameHits(got, want) {
		t.Fatalf("SearchTerms = %v, want %v", got, want)
	}
}

func TestSearchAllocatesOnlyHits(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths are not stable under -race")
	}
	ix := seededIndex()
	terms := ix.AppendTerms(nil, "how to change the vpn password")
	ix.Search("warm the scratch pool", -1, 3)
	if n := testing.AllocsPerRun(200, func() { ix.SearchTerms(terms, -1, 3) }); n != 1 {
		t.Fatalf("SearchTerms allocates %.1f times, want 1 (the hit slice)", n)
	}
	if n := testing.AllocsPerRun(200, func() { ix.Search("How to change the VPN password?", -1, 3) }); n != 1 {
		t.Fatalf("Search allocates %.1f times, want 1 (the hit slice)", n)
	}
	if n := testing.AllocsPerRun(200, func() { ix.Search("zzz unknown", -1, 3) }); n != 0 {
		t.Fatalf("Search without hits allocates %.1f times, want 0", n)
	}
}
