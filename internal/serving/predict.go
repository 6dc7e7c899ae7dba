package serving

import (
	"sync"

	"intellitag/internal/search"
)

// phraseTerms is one model version's tag phrases pre-scanned into the RQ
// index's term ids, so a click builds its predicted-question query without
// joining or tokenizing strings. It is a flat CSR table: tag t's run is
// terms[offs[t]:offs[t+1]], holding the phrase's terms that occur in some RQ,
// each once, in first-occurrence order. Built with the version and immutable
// afterwards, so a hot swap replaces it atomically with the index it refers
// to. An index without documents gets an empty table: no query can match.
type phraseTerms struct {
	offs  []int32
	terms []int32
}

func newPhraseTerms(phrases []string, ix *search.Index) phraseTerms {
	if ix.Len() == 0 {
		return phraseTerms{}
	}
	pt := phraseTerms{offs: make([]int32, len(phrases)+1)}
	for t, p := range phrases {
		pt.terms = ix.AppendTerms(pt.terms, p)
		pt.offs[t+1] = int32(len(pt.terms))
	}
	return pt
}

// run returns a tag's term ids. The table must not be empty.
func (pt phraseTerms) run(tag int) []int32 {
	return pt.terms[pt.offs[tag]:pt.offs[tag+1]]
}

// clickQuery is the pooled buffer a click concatenates its history's phrase
// runs into.
type clickQuery struct{ terms []int32 }

var clickQueries = sync.Pool{New: func() any { return new(clickQuery) }}

// predict ranks the tenant's RQs for the concatenated phrases of a click
// history. The query holds exactly the terms of
// Tokenize(strings.Join(phrases, " ")) that the index knows, in the same
// order: a phrase boundary is a separator, so the token stream of the joined
// text is the concatenation of the phrases' streams. SearchTerms drops
// repeats by first occurrence, so the scores are the same float64 additions
// in the same order as Search on the joined text.
func (v *modelVersion) predict(history []int, tenant, k int) []search.Hit {
	if v.phrases.offs == nil {
		return nil // an index without documents matches nothing
	}
	q := clickQueries.Get().(*clickQuery)
	defer clickQueries.Put(q)
	q.terms = q.terms[:0]
	for _, tag := range history {
		q.terms = append(q.terms, v.phrases.run(tag)...)
	}
	return v.index.SearchTerms(q.terms, tenant, k)
}

// questions resolves ranked RQ hits to predicted questions with answers.
func (v *modelVersion) questions(hits []search.Hit) []PredictedQuestion {
	out := make([]PredictedQuestion, 0, len(hits))
	for _, h := range hits {
		doc, ok := v.index.Get(h.ID)
		if !ok {
			continue
		}
		out = append(out, PredictedQuestion{
			RQ:       h.ID,
			Question: doc.Text,
			Answer:   v.catalog.RQAnswers[h.ID],
			Score:    h.Score,
		})
	}
	return out
}
