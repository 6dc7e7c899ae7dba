package main

import (
	"encoding/json"
	"fmt"
	"math"

	"intellitag/internal/serving"
	"intellitag/internal/store"
)

// The response shapes of the serving API, decoded independently of the
// serving package's own types.
type respTag struct {
	Tag    int     `json:"tag"`
	Phrase string  `json:"phrase"`
	Score  float64 `json:"score"`
}

type respQuestion struct {
	RQ       int     `json:"rq"`
	Question string  `json:"question"`
	Answer   string  `json:"answer"`
	Score    float64 `json:"score"`
}

type tagsResponse struct {
	Tags      []respTag      `json:"tags"`
	Questions []respQuestion `json:"questions"`
	Bucket    string         `json:"bucket"`
}

type askResponse struct {
	Found  bool         `json:"found"`
	Match  respQuestion `json:"match"`
	Bucket string       `json:"bucket"`
}

// ranked is one entry of a reference ranking.
type ranked struct {
	ID    int
	Score float64
}

func decodeTags(body []byte) (tagsResponse, error) {
	var r tagsResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("malformed response: %v", err)
	}
	return r, nil
}

func decodeAsk(body []byte) (askResponse, error) {
	var r askResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("malformed response: %v", err)
	}
	return r, nil
}

// near reports whether two scores agree to within float rounding of a
// differently ordered summation.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkRanking verifies a recommendation list against the tenant's catalog:
// every tag belongs to the tenant and carries its phrase, no tag repeats,
// the list holds min(k, catalog) tags and is ordered by (score desc, tag
// asc).
func checkRanking(tags []respTag, members map[int]bool, phrases []string, k int) error {
	want := k
	if len(members) < want {
		want = len(members)
	}
	if len(tags) != want {
		return fmt.Errorf("ranking has %d tags, want min(k=%d, catalog=%d)", len(tags), k, len(members))
	}
	seen := make(map[int]bool, len(tags))
	for i, t := range tags {
		if !members[t.Tag] {
			return fmt.Errorf("tag %d is not in the tenant's catalog", t.Tag)
		}
		if t.Phrase != phrases[t.Tag] {
			return fmt.Errorf("tag %d carries phrase %q, want %q", t.Tag, t.Phrase, phrases[t.Tag])
		}
		if seen[t.Tag] {
			return fmt.Errorf("tag %d listed twice", t.Tag)
		}
		seen[t.Tag] = true
		if i > 0 {
			p := tags[i-1]
			if p.Score < t.Score || (p.Score == t.Score && p.Tag > t.Tag) {
				return fmt.Errorf("tags out of order at %d: (%d, %g) before (%d, %g)", i, p.Tag, p.Score, t.Tag, t.Score)
			}
		}
	}
	return nil
}

// checkSameTags verifies that a /recommend right after a /click returned the
// click's list.
func checkSameTags(rec, clicked []respTag) error {
	if len(rec) != len(clicked) {
		return fmt.Errorf("recommend after click returned %d tags, the click %d", len(rec), len(clicked))
	}
	for i := range rec {
		if rec[i].Tag != clicked[i].Tag || rec[i].Score != clicked[i].Score {
			return fmt.Errorf("recommend after click differs at %d: tag %d, click gave %d", i, rec[i].Tag, clicked[i].Tag)
		}
	}
	return nil
}

// checkTopK verifies a list against a reference ranking's first len(want)
// entries, tags exactly and scores to rounding.
func checkTopK(got []respTag, want []ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("list has %d tags, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Tag != want[i].ID || !near(got[i].Score, want[i].Score) {
			return fmt.Errorf("rank %d is (%d, %g), reference (%d, %g)", i, got[i].Tag, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// checkQuestions verifies predicted questions: every RQ belongs to the
// tenant and the list equals the reference BM25 ranking.
func checkQuestions(tenant int, qs []respQuestion, rqTenant []int, want []ranked) error {
	for _, q := range qs {
		if q.RQ < 0 || q.RQ >= len(rqTenant) || rqTenant[q.RQ] != tenant {
			return fmt.Errorf("predicted question RQ %d does not belong to tenant %d", q.RQ, tenant)
		}
	}
	if len(qs) != len(want) {
		return fmt.Errorf("%d predicted questions, reference BM25 has %d", len(qs), len(want))
	}
	for i := range want {
		if qs[i].RQ != want[i].ID || !near(qs[i].Score, want[i].Score) {
			return fmt.Errorf("predicted question %d is (%d, %g), reference (%d, %g)", i, qs[i].RQ, qs[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// checkAsk verifies an /ask answer: found exactly when the reference recall
// set is non-empty, the answer is the tenant's, inside the recall set, and
// carries the RQ's answer text.
func checkAsk(tenant int, r askResponse, rqTenant []int, answers []string, recall []ranked) error {
	if r.Found != (len(recall) > 0) {
		return fmt.Errorf("ask found=%v with %d recall candidates", r.Found, len(recall))
	}
	if !r.Found {
		return nil
	}
	id := r.Match.RQ
	if id < 0 || id >= len(rqTenant) || rqTenant[id] != tenant {
		return fmt.Errorf("ask answered with RQ %d, not tenant %d's", id, tenant)
	}
	in := false
	for _, c := range recall {
		in = in || c.ID == id
	}
	if !in {
		return fmt.Errorf("ask answered with RQ %d outside the BM25 recall set", id)
	}
	if r.Match.Answer != answers[id] {
		return fmt.Errorf("ask answer text of RQ %d does not match its RQ", id)
	}
	return nil
}

// checkLoggedClicks verifies that the log holds every issued click exactly
// once: per session, the logged click sequence equals the issued one.
func checkLoggedClicks(events []store.Event, issued map[int][]int) error {
	logged := map[int][]int{}
	n := 0
	for _, e := range events {
		if e.Kind == store.EventClick {
			logged[e.Session] = append(logged[e.Session], e.TagID)
			n++
		}
	}
	want := 0
	for sid, clicks := range issued {
		want += len(clicks)
		got := logged[sid]
		if len(got) != len(clicks) {
			return fmt.Errorf("session %d: %d clicks logged, %d issued", sid, len(got), len(clicks))
		}
		for i := range clicks {
			if got[i] != clicks[i] {
				return fmt.Errorf("session %d: logged click %d is tag %d, issued %d", sid, i, got[i], clicks[i])
			}
		}
	}
	if n != want {
		return fmt.Errorf("%d click events logged, %d clicks issued", n, want)
	}
	return nil
}

// checkReplicaVersions verifies that every replica serves the wanted
// version.
func checkReplicaVersions(infos []serving.VersionInfo, want string) error {
	for _, v := range infos {
		if v.ID != want {
			return fmt.Errorf("replica %d serves %s after the swap to %s", v.Replica, v.ID, want)
		}
	}
	return nil
}

// checkRecall verifies a mean recall against its floor.
func checkRecall(sum float64, n int, floor float64) error {
	if n == 0 {
		return fmt.Errorf("no ANN-served list to measure recall on")
	}
	if r := sum / float64(n); r < floor {
		return fmt.Errorf("ANN-served recall@k %.3f below the floor %.2f over %d lists", r, floor, n)
	}
	return nil
}
