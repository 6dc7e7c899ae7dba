package main

import (
	"math"
	"sort"
	"strings"
	"unicode"

	"intellitag/internal/mat"
)

// The reference computations the output checks compare against. They are
// written here, apart from the program, from the method's definitions.

// refTokens lowercases s and splits it at every rune that is neither a
// letter nor a digit.
func refTokens(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// bm25Doc is one document of the reference index.
type bm25Doc struct {
	id, tenant int
	length     int
	tf         map[string]int
}

// bm25 is a small reference BM25 ranker (k1 = 1.2, b = 0.75, idf =
// ln(1 + (N - n + 0.5) / (n + 0.5))) over every RQ, filtered by tenant.
type bm25 struct {
	docs     []bm25Doc
	df       map[string]int
	avgLen   float64
	byTenant map[int][]int // tenant -> indexes into docs
}

func newBM25(ids, tenants []int, texts []string) *bm25 {
	b := &bm25{df: map[string]int{}, byTenant: map[int][]int{}}
	total := 0
	for i, text := range texts {
		d := bm25Doc{id: ids[i], tenant: tenants[i], tf: map[string]int{}}
		for _, tok := range refTokens(text) {
			d.tf[tok]++
			d.length++
		}
		for tok := range d.tf {
			b.df[tok]++
		}
		total += d.length
		b.byTenant[d.tenant] = append(b.byTenant[d.tenant], len(b.docs))
		b.docs = append(b.docs, d)
	}
	if len(b.docs) > 0 {
		b.avgLen = float64(total) / float64(len(b.docs))
	}
	return b
}

// search ranks the tenant's documents that share at least one term with the
// query by BM25, (score desc, id asc), and keeps the first k.
func (b *bm25) search(query string, tenant, k int) []ranked {
	var terms []string
	seen := map[string]bool{}
	for _, t := range refTokens(query) {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	const k1, bb = 1.2, 0.75
	n := float64(len(b.docs))
	var out []ranked
	for _, di := range b.byTenant[tenant] {
		d := &b.docs[di]
		score, hit := 0.0, false
		for _, t := range terms {
			tf := float64(d.tf[t])
			if tf == 0 {
				continue
			}
			hit = true
			df := float64(b.df[t])
			idf := math.Log(1 + (n-df+0.5)/(df+0.5))
			score += idf * tf * (k1 + 1) / (tf + k1*(1-bb+bb*float64(d.length)/b.avgLen))
		}
		if hit {
			out = append(out, ranked{ID: d.id, Score: score})
		}
	}
	return topK(out, k)
}

// topK orders a ranking by (score desc, id asc) and keeps the first k.
func topK(rs []ranked, k int) []ranked {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// rankScores pairs candidates with their scores and keeps the top k.
func rankScores(candidates []int, scores []float64, k int) []ranked {
	rs := make([]ranked, len(candidates))
	for i, c := range candidates {
		rs[i] = ranked{ID: c, Score: scores[i]}
	}
	return topK(rs, k)
}

// historyWindow is the number of recent clicks the frozen-embedding scorer
// and the retrieval query use.
const historyWindow = 8

// centroidSum sums the embedding rows of the last historyWindow clicks.
func centroidSum(vecs *mat.Matrix, history []int) []float64 {
	q := make([]float64, vecs.Cols)
	recent := history
	if len(recent) > historyWindow {
		recent = recent[len(recent)-historyWindow:]
	}
	for _, tag := range recent {
		for j, x := range vecs.Row(tag) {
			q[j] += x
		}
	}
	return q
}

// bruteDot ranks every candidate by its dot product with q: the reference
// for ANN-served lists.
func bruteDot(vecs *mat.Matrix, q []float64, candidates []int, k int) []ranked {
	rs := make([]ranked, len(candidates))
	for i, c := range candidates {
		s := 0.0
		for j, x := range vecs.Row(c) {
			s += q[j] * x
		}
		rs[i] = ranked{ID: c, Score: s}
	}
	return topK(rs, k)
}

// overlap is |a ∩ b| / len(b) over tag ids.
func overlap(a []respTag, b []ranked) float64 {
	if len(b) == 0 {
		return 0
	}
	in := make(map[int]bool, len(a))
	for _, t := range a {
		in[t.Tag] = true
	}
	n := 0
	for _, r := range b {
		if in[r.ID] {
			n++
		}
	}
	return float64(n) / float64(len(b))
}
