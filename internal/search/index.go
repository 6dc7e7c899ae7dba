// Package search is the ElasticSearch substitute of the IntelliTag system
// (Section V): an in-memory inverted index with BM25 ranking used by the
// model server to retrieve RQ recall sets for user questions and for
// clicked-tag queries. It supports per-tenant filtering, which the paper's
// multi-tenant deployment requires.
//
// The index is build-then-serve. Add records documents; the first query
// after an Add builds the scoring tables: a term dictionary (term → dense
// id), term-id postings carrying each document's term frequency, per-term
// idf and per-document length norms. Queries are scanned straight into term
// ids and scored into pooled dense scratch, so a steady-state search
// allocates only the hit slice it returns.
package search

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"intellitag/internal/textproc"
)

// Doc is an indexed document.
type Doc struct {
	ID     int
	Tenant int
	Text   string
}

// Hit is a scored search result.
type Hit struct {
	ID    int
	Score float64
}

// posting is one document's entry in a term's postings list.
type posting struct {
	slot int32 // index into Index.docs
	tf   int32 // occurrences of the term in the document
}

// Index is a thread-safe inverted index with BM25 scoring. The zero value is
// not usable; call NewIndex.
type Index struct {
	mu       sync.RWMutex
	docs     []Doc            // by slot, in first-Add order
	slots    map[int]int32    // doc id -> slot
	dict     map[string]int32 // term -> id; only grows, so ids stay valid
	postings [][]posting      // term id -> postings, ascending slot
	idf      []float64        // term id -> BM25 idf
	lenNorm  []float64        // slot -> 1 - b + b*len/avgLen

	stale atomic.Bool // an Add happened since the last build
	k1, b float64
	pool  sync.Pool // *scratch
}

// scratch is the pooled per-query state: a dense per-document score array
// with the list of slots it touched, and the query's distinct term ids with
// a dense seen-mark per term.
type scratch struct {
	sc      textproc.Scanner
	terms   []int32
	seen    []bool    // term id -> in terms
	score   []float64 // slot -> accumulated score, zero outside touched
	touched []int32
}

// NewIndex returns an empty index with standard BM25 parameters
// (k1=1.2, b=0.75).
func NewIndex() *Index {
	ix := &Index{
		slots: map[int]int32{},
		dict:  map[string]int32{},
		k1:    1.2,
		b:     0.75,
	}
	ix.pool.New = func() any { return new(scratch) }
	return ix
}

// Add indexes (or replaces) a document. The scoring tables are rebuilt by
// the next query, so an index is meant to be filled first and then served.
func (ix *Index) Add(id, tenant int, text string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d := Doc{ID: id, Tenant: tenant, Text: text}
	if s, ok := ix.slots[id]; ok {
		ix.docs[s] = d
	} else {
		ix.slots[id] = int32(len(ix.docs))
		ix.docs = append(ix.docs, d)
	}
	ix.stale.Store(true)
}

// build recomputes the scoring tables from the documents when an Add left
// them stale. Every query calls it first; a query that races an Add scores
// against the tables of the build before it, as if it had run first.
func (ix *Index) build() {
	if !ix.stale.Load() {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.stale.Load() {
		return
	}
	var sc textproc.Scanner
	var tf []int32 // term id -> count in the current document
	var terms []int32
	for i := range ix.postings {
		ix.postings[i] = ix.postings[i][:0]
	}
	lens := make([]int, len(ix.docs))
	total := 0
	for slot, d := range ix.docs {
		terms = terms[:0]
		sc.Reset(d.Text)
		for sc.Next() {
			id, ok := ix.dict[string(sc.Token())]
			if !ok {
				id = int32(len(ix.dict))
				ix.dict[string(sc.Token())] = id
			}
			for int(id) >= len(tf) {
				tf = append(tf, 0)
			}
			if tf[id] == 0 {
				terms = append(terms, id)
			}
			tf[id]++
			lens[slot]++
		}
		total += lens[slot]
		for len(ix.postings) < len(ix.dict) {
			ix.postings = append(ix.postings, nil)
		}
		for _, id := range terms {
			ix.postings[id] = append(ix.postings[id], posting{slot: int32(slot), tf: tf[id]})
			tf[id] = 0
		}
	}
	n := float64(len(ix.docs))
	ix.idf = ix.idf[:0]
	for _, p := range ix.postings {
		df := float64(len(p))
		ix.idf = append(ix.idf, math.Log(1+(n-df+0.5)/(df+0.5)))
	}
	avgLen := float64(total) / n
	ix.lenNorm = ix.lenNorm[:0]
	for _, l := range lens {
		ix.lenNorm = append(ix.lenNorm, 1-ix.b+ix.b*float64(l)/avgLen)
	}
	ix.stale.Store(false)
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Get returns the document with the given id, if present.
func (ix *Index) Get(id int) (Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, ok := ix.slots[id]
	if !ok {
		return Doc{}, false
	}
	return ix.docs[s], true
}

// AppendTerms appends to dst the term ids of text's tokens that occur in at
// least one document, each once, in first-occurrence order. Tokens no
// document contains cannot change a score, so dropping them leaves every
// query's hits unchanged; the ids stay valid for the life of the index.
func (ix *Index) AppendTerms(dst []int32, text string) []int32 {
	var sc textproc.Scanner
	ix.build()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	start := len(dst)
	sc.Reset(text)
	for sc.Next() {
		id, ok := ix.dict[string(sc.Token())]
		if ok && len(ix.postings[id]) > 0 && !slices.Contains(dst[start:], id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Search returns the top-k documents for the query, ranked by BM25. A
// tenant >= 0 restricts results to that tenant (the cloud-service isolation
// requirement); tenant < 0 searches all documents. k <= 0 returns every
// matching document. Hits are ordered by score descending, then id
// ascending.
func (ix *Index) Search(query string, tenant, k int) []Hit {
	s := ix.pool.Get().(*scratch)
	defer ix.pool.Put(s)
	ix.build()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s.fit(len(ix.docs), len(ix.postings))
	s.sc.Reset(query)
	for s.sc.Next() {
		if id, ok := ix.dict[string(s.sc.Token())]; ok {
			s.addTerm(id)
		}
	}
	return ix.score(s, tenant, k)
}

// SearchTerms is Search over a query already turned into term ids by
// AppendTerms: the query is the concatenation of terms, and a repeated id
// scores once, as a repeated word does in Search.
func (ix *Index) SearchTerms(terms []int32, tenant, k int) []Hit {
	s := ix.pool.Get().(*scratch)
	defer ix.pool.Put(s)
	ix.build()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s.fit(len(ix.docs), len(ix.postings))
	for _, id := range terms {
		s.addTerm(id)
	}
	return ix.score(s, tenant, k)
}

// fit sizes the dense arrays for the index's current documents and terms.
func (s *scratch) fit(docs, terms int) {
	if len(s.score) < docs {
		s.score = make([]float64, docs)
	}
	if len(s.seen) < terms {
		s.seen = make([]bool, terms)
	}
}

// addTerm appends a query term unless the query already has it: query-term
// repetition does not re-score.
func (s *scratch) addTerm(id int32) {
	if !s.seen[id] {
		s.seen[id] = true
		s.terms = append(s.terms, id)
	}
}

// score ranks the documents matching s.terms and resets the scratch. Each
// document's score is the sum of its per-term BM25 contributions added in
// query-term order, the same float64 additions whatever the index layout.
// Caller holds the read lock.
func (ix *Index) score(s *scratch, tenant, k int) []Hit {
	for _, id := range s.terms {
		idf := ix.idf[id]
		for _, p := range ix.postings[id] {
			if tenant >= 0 && ix.docs[p.slot].Tenant != tenant {
				continue
			}
			tf := float64(p.tf)
			// Every contribution is positive (idf > 0, tf >= 1), so a zero
			// score marks a slot not yet touched.
			if s.score[p.slot] == 0 {
				s.touched = append(s.touched, p.slot)
			}
			s.score[p.slot] += idf * tf * (ix.k1 + 1) / (tf + ix.k1*ix.lenNorm[p.slot])
		}
		s.seen[id] = false
	}
	s.terms = s.terms[:0]
	hits := ix.topK(s, k)
	for _, slot := range s.touched {
		s.score[slot] = 0
	}
	s.touched = s.touched[:0]
	return hits
}

// topK selects the k best touched documents by (score desc, id asc). When
// fewer than k documents matched it sorts them all; otherwise it inserts into
// a k-long sorted window, which rejects most documents with a single
// comparison against the window's last hit.
func (ix *Index) topK(s *scratch, k int) []Hit {
	n := len(s.touched)
	if n == 0 {
		return nil
	}
	if k <= 0 || k >= n {
		hits := make([]Hit, n)
		for i, slot := range s.touched {
			hits[i] = Hit{ID: ix.docs[slot].ID, Score: s.score[slot]}
		}
		slices.SortFunc(hits, func(a, b Hit) int {
			if before(a, b) {
				return -1
			}
			return 1
		})
		return hits
	}
	hits := make([]Hit, 0, k)
	for _, slot := range s.touched {
		h := Hit{ID: ix.docs[slot].ID, Score: s.score[slot]}
		if len(hits) == k {
			if !before(h, hits[k-1]) {
				continue
			}
			hits = hits[:k-1]
		}
		i := len(hits)
		hits = append(hits, h)
		for ; i > 0 && before(h, hits[i-1]); i-- {
			hits[i] = hits[i-1]
		}
		hits[i] = h
	}
	return hits
}

// before is the hit order: score descending, ties by id ascending.
func before(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}
