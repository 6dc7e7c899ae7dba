// Package textproc supplies the text-processing substrate of IntelliTag:
// tokenization, vocabularies, TF-IDF and PMI statistics, a lightweight text
// embedder, DBSCAN clustering of question embeddings and an extractive
// answer selector. These replace the pretrained-Transformer text plumbing of
// the paper's data-construction pipeline (Section III-A).
package textproc

import (
	"sort"
	"unicode"
	"unicode/utf8"
)

// Scanner splits text into the package's word tokens without allocating per
// token: it lowercases the text and treats any rune that is then neither a
// letter nor a digit as a separator. Each token is written into a buffer the
// scanner owns and reuses, so a caller that only looks tokens up (for
// example in a map keyed by string, where m[string(b)] does not allocate)
// scans a whole text allocation-free once the buffer has grown. It is the one
// implementation of the tokenization rules; Tokenize wraps it. The zero
// value is ready to use.
type Scanner struct {
	s   string
	pos int
	tok []byte
}

// Reset starts scanning s from its first byte.
func (sc *Scanner) Reset(s string) {
	sc.s, sc.pos, sc.tok = s, 0, sc.tok[:0]
}

// Next advances to the next token and reports whether there was one.
func (sc *Scanner) Next() bool {
	sc.tok = sc.tok[:0]
	for sc.pos < len(sc.s) {
		// An invalid byte decodes as utf8.RuneError, which is a separator,
		// exactly as if the text had been lowercased with strings.ToLower
		// (which replaces invalid bytes with U+FFFD) before splitting.
		r, w := utf8.DecodeRuneInString(sc.s[sc.pos:])
		sc.pos += w
		r = unicode.ToLower(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sc.tok = utf8.AppendRune(sc.tok, r)
		} else if len(sc.tok) > 0 {
			return true
		}
	}
	return len(sc.tok) > 0
}

// Token returns the current token. The bytes are valid until the next call
// to Next or Reset.
func (sc *Scanner) Token() []byte { return sc.tok }

// Tokenize lowercases s and splits it into word tokens, treating any
// non-letter/non-digit rune as a separator.
func Tokenize(s string) []string {
	var tokens []string
	var sc Scanner
	sc.Reset(s)
	for sc.Next() {
		tokens = append(tokens, string(sc.Token()))
	}
	return tokens
}

// Vocab is a bidirectional word <-> id mapping. ID 0 is reserved for the
// unknown token.
type Vocab struct {
	byWord map[string]int
	words  []string
}

// UnknownID is the id returned for out-of-vocabulary words.
const UnknownID = 0

// NewVocab returns a vocabulary containing only the unknown token.
func NewVocab() *Vocab {
	return &Vocab{byWord: map[string]int{"<unk>": 0}, words: []string{"<unk>"}}
}

// Add inserts word if absent and returns its id.
func (v *Vocab) Add(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	id := len(v.words)
	v.byWord[word] = id
	v.words = append(v.words, word)
	return id
}

// ID returns the id for word, or UnknownID if absent.
func (v *Vocab) ID(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	return UnknownID
}

// Word returns the word for id (panics if out of range).
func (v *Vocab) Word(id int) string { return v.words[id] }

// Len returns the vocabulary size including the unknown token.
func (v *Vocab) Len() int { return len(v.words) }

// Encode maps tokens to ids using ID (unknown words map to UnknownID).
func (v *Vocab) Encode(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = v.ID(t)
	}
	return ids
}

// BuildVocab constructs a vocabulary from documents, keeping words that
// occur at least minCount times, in deterministic frequency-then-lexical
// order.
func BuildVocab(docs [][]string, minCount int) *Vocab {
	counts := map[string]int{}
	for _, doc := range docs {
		for _, w := range doc {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	type wc struct {
		w string
		c int
	}
	var list []wc
	for _, w := range words {
		if c := counts[w]; c >= minCount {
			list = append(list, wc{w, c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	v := NewVocab()
	for _, e := range list {
		v.Add(e.w)
	}
	return v
}
