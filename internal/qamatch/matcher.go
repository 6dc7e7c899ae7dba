// Package qamatch implements the Q&A matching model of the IntelliTag
// system — the component Fig. 4 labels "RoBERTa model learner". When a user
// types a question, the model server retrieves an RQ recall set from the
// search index and this model picks the best match (Section V-A). The
// substitution for the pretrained RoBERTa is a siamese Transformer text
// encoder trained from scratch with a contrastive objective on (user
// paraphrase, RQ) pairs; what the pipeline needs — paraphrase-robust
// question matching that improves on raw BM25 ordering — is preserved.
package qamatch

import (
	"sync"

	"intellitag/internal/mat"
	"intellitag/internal/nn"
	"intellitag/internal/textproc"
)

// Config sizes the matcher.
type Config struct {
	Dim    int
	Heads  int
	Layers int
	MaxLen int
	Seed   int64
}

// DefaultConfig returns a laptop-scale matcher configuration.
func DefaultConfig() Config {
	return Config{Dim: 24, Heads: 2, Layers: 1, MaxLen: 32, Seed: 21}
}

// Matcher is a siamese text encoder: both sides of a pair share the same
// weights, and the match score is the dot product of mean-pooled encodings.
type Matcher struct {
	Cfg   Config
	Vocab *textproc.Vocab

	emb *nn.Embedding
	pos *nn.PositionalEmbedding
	enc *nn.Encoder

	params *nn.Collector

	// embedMu serializes Embed: the encoder's layers keep their forward
	// buffers and train flag, so two inference passes may not overlap.
	embedMu sync.Mutex
}

// NewMatcher builds a matcher over the vocabulary.
func NewMatcher(cfg Config, vocab *textproc.Vocab) *Matcher {
	g := mat.NewRNG(cfg.Seed)
	m := &Matcher{
		Cfg:   cfg,
		Vocab: vocab,
		emb:   nn.NewEmbedding("qamatch.emb", vocab.Len(), cfg.Dim, g),
		pos:   nn.NewPositionalEmbedding("qamatch.pos", cfg.MaxLen, cfg.Dim, g),
		enc:   nn.NewEncoder("qamatch.enc", cfg.Layers, cfg.Dim, cfg.Heads, 0.1, g),
	}
	m.params = nn.NewCollector()
	m.emb.CollectParams(m.params)
	m.pos.CollectParams(m.params)
	m.enc.CollectParams(m.params)
	return m
}

// Params returns the trainable parameters.
func (m *Matcher) Params() []*nn.Param { return m.params.Params() }

// SetTrain toggles dropout.
func (m *Matcher) SetTrain(train bool) { m.enc.SetTrain(train) }

// encode runs one tower and returns the mean-pooled vector plus a backward
// closure. Because the towers share weights, Forward state is overwritten by
// the next encode call: callers must backward each tower immediately after
// computing its gradient contribution, or re-encode (the trainer below
// re-encodes).
func (m *Matcher) encode(tokens []string) ([]float64, func(dVec []float64)) {
	if len(tokens) > m.Cfg.MaxLen {
		tokens = tokens[:m.Cfg.MaxLen]
	}
	ids := m.Vocab.Encode(tokens)
	h := m.enc.Forward(m.pos.Forward(m.emb.Forward(ids)))
	n := h.Rows
	vec := make([]float64, m.Cfg.Dim)
	for i := 0; i < n; i++ {
		mat.AXPY(1/float64(n), h.Row(i), vec)
	}
	backward := func(dVec []float64) {
		dH := mat.New(n, m.Cfg.Dim)
		for i := 0; i < n; i++ {
			row := dH.Row(i)
			for j := range row {
				row[j] = dVec[j] / float64(n)
			}
		}
		m.emb.Backward(m.pos.Backward(m.enc.Backward(dH)))
	}
	return vec, backward
}

// Embed returns the encoder's vector for a text (inference mode). It is safe
// for concurrent use; concurrent calls run one at a time. Training must not
// run concurrently with it.
func (m *Matcher) Embed(text string) []float64 {
	m.embedMu.Lock()
	defer m.embedMu.Unlock()
	m.SetTrain(false)
	v, _ := m.encode(textproc.Tokenize(text))
	return v
}

// Score returns the match score between a question and a candidate text.
func (m *Matcher) Score(question, candidate string) float64 {
	return mat.Dot(m.Embed(question), m.Embed(candidate))
}

// Rerank orders candidate ids by match score against the question,
// descending. Candidate vectors are computed on the fly; production
// deployments precompute them (see Index).
func (m *Matcher) Rerank(question string, candidates []string) []int {
	q := m.Embed(question)
	type scored struct {
		idx   int
		score float64
	}
	list := make([]scored, len(candidates))
	for i, c := range candidates {
		list[i] = scored{i, mat.Dot(q, m.Embed(c))}
	}
	for i := 1; i < len(list); i++ { // insertion sort: recall sets are small
		for j := i; j > 0 && list[j].score > list[j-1].score; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	out := make([]int, len(list))
	for i, s := range list {
		out[i] = s.idx
	}
	return out
}

// Index precomputes candidate embeddings so online reranking only encodes
// the user's question — the "uploaded RoBERTa model" serving strategy.
type Index struct {
	m    *Matcher
	ids  []int
	vecs *mat.Matrix
}

// BuildIndex embeds every candidate text once.
func (m *Matcher) BuildIndex(ids []int, texts []string) *Index {
	ix := &Index{m: m, ids: append([]int(nil), ids...), vecs: mat.New(len(texts), m.Cfg.Dim)}
	for i, t := range texts {
		ix.vecs.SetRow(i, m.Embed(t))
	}
	return ix
}

// Best returns the id of the best-matching candidate among the given subset
// (nil subset means all indexed candidates) and its score. It is safe for
// concurrent use: the question's embedding is serialized inside Embed, and
// the candidate table is read-only.
func (ix *Index) Best(question string, subset map[int]bool) (int, float64) {
	q := ix.m.Embed(question)
	best, bestScore := -1, 0.0
	for i, id := range ix.ids {
		if subset != nil && !subset[id] {
			continue
		}
		s := mat.Dot(q, ix.vecs.Row(i))
		if best == -1 || s > bestScore {
			best, bestScore = id, s
		}
	}
	return best, bestScore
}
