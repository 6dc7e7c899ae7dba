package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/synth"
)

// toyScale runs every workload in seconds: the small synthetic world and a
// 4000-tag table (tenant catalogs of 1000 tags, above the ANN threshold).
func toyScale() scale {
	s := fullScale
	s.world = synth.SmallConfig()
	s.supportSessions = 20
	s.dailySessions = 24
	s.largeTags = 4000
	s.largeSessions = 20
	return s
}

func toyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.3, trace: trace, scale: toyScale(), workDir: t.TempDir()}
}

// TestWorkloadsToy runs each workload at toy size, untraced and traced, and
// requires every check to pass and every metric to be reported.
func TestWorkloadsToy(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(toyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					name, trace, res.Correct, res.Failed, res.Attempted, rep.problems)
			}
			var want []string
			for _, m := range endToEndMetrics {
				want = append(want, m.name)
			}
			if trace {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
			if trace {
				share := res.Metrics["serving.ann_path_share"].Value
				if name == "large_catalog" && share < 0.9 {
					t.Errorf("large_catalog: ann_path_share %v, want near 1", share)
				}
				if name != "large_catalog" && share != 0 {
					t.Errorf("%s: ann_path_share %v, want 0", name, share)
				}
			}
		}
	}
}

// TestManifestMatchesTables requires BENCHMARK.json to declare exactly the
// bounded end-to-end metrics and the per-layer metrics of the code's tables,
// in order, with the same units, so that the names and units the benchmark
// prints are the ones the manifest declares.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var endToEnd, layers []entry
	for _, e := range endToEndMetrics {
		if e.bounded {
			endToEnd = append(endToEnd, entry{e.name, e.unit})
		}
	}
	for _, e := range perLayer {
		layers = append(layers, entry{e.name, e.unit})
	}
	if !slices.Equal(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the code's bounded metrics %v", m.EndToEnd, endToEnd)
	}
	if !slices.Equal(m.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, the code's per-layer metrics %v", m.PerLayer, layers)
	}
}

// toyServe sends one request to a server and returns the response body.
func toyServe(t *testing.T, srv *serving.Server, path, body string) []byte {
	t.Helper()
	c := newClient(srv)
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	c.srv.ServeHTTP(&c.w, req)
	if c.w.code != http.StatusOK {
		t.Fatalf("%s %s: status %d", path, body, c.w.code)
	}
	return bytes.Clone(c.w.body.Bytes())
}

// TestChecksCatchWrongOutput feeds each output check a real output of a toy
// world rig and a deliberately corrupted copy: the first must pass, the
// second fail.
func TestChecksCatchWrongOutput(t *testing.T) {
	sc := toyScale()
	rig, err := setupWorld(sc, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	chk := newWorldChecker(newReport("test"), rig, rig.model)

	// A click on tenant 0's first catalog tag.
	tenant := 0
	catalog := rig.catalog.TenantTags[tenant]
	tag := catalog[0]
	body := toyServe(t, rig.srv, "/click", `{"tenant":0,"session":7,"tag":`+strconv.Itoa(tag)+`,"k":5}`)
	r, err := decodeTags(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tags) < 2 || len(r.Questions) == 0 {
		t.Fatalf("toy click returned %d tags and %d questions; the test needs more", len(r.Tags), len(r.Questions))
	}
	members := chk.members[tenant]
	refQuestions := chk.bm.search(rig.catalog.TagPhrases[tag], tenant, 5)

	reversed := slices.Clone(r.Tags)
	slices.Reverse(reversed)
	foreign := slices.Clone(r.Questions)
	for id, ten := range chk.rqTenant {
		if ten != tenant {
			foreign[0].RQ = id
			break
		}
	}

	// Log: every issued click once; then one event dropped.
	issued := map[int][]int{7: {tag}}
	events, _ := rig.log.EventsSince(0)

	// Versions: roll the set to a new version; then report one replica as
	// still on the old one.
	b, err := rig.load(rig.base)
	if err != nil {
		t.Fatal(err)
	}
	b.VersionID = "v0002-test"
	infos := rig.rs.RollingSwap(b, 0)
	stale := slices.Clone(infos)
	stale[len(stale)-1].ID = rig.base

	// Digests: a committed version against itself; then one component
	// altered.
	man, err := rig.snaps.Get(rig.base)
	if err != nil {
		t.Fatal(err)
	}
	digests := man.Components
	tampered := slices.Clone(digests)
	tampered[0] = snapshot.Component{Name: tampered[0].Name, SHA256: "0" + tampered[0].SHA256[1:], Size: tampered[0].Size}

	cases := []struct {
		name      string
		good, bad func() error
	}{
		{"reversed ranking",
			func() error { return checkRanking(r.Tags, members, rig.catalog.TagPhrases, 5) },
			func() error { return checkRanking(reversed, members, rig.catalog.TagPhrases, 5) }},
		{"reversed exhaustive ranking",
			func() error {
				return checkTopK(r.Tags, rankScores(catalog, rig.model.ScoreCandidates([]int{tag}, catalog), 5))
			},
			func() error {
				return checkTopK(reversed, rankScores(catalog, rig.model.ScoreCandidates([]int{tag}, catalog), 5))
			}},
		{"recommend differs from its click",
			func() error { return checkSameTags(r.Tags, r.Tags) },
			func() error { return checkSameTags(reversed, r.Tags) }},
		{"foreign-tenant RQ",
			func() error { return checkQuestions(tenant, r.Questions, chk.rqTenant, refQuestions) },
			func() error { return checkQuestions(tenant, foreign, chk.rqTenant, refQuestions) }},
		{"dropped log event",
			func() error { return checkLoggedClicks(events, issued) },
			func() error { return checkLoggedClicks(events[:len(events)-1], issued) }},
		{"replica left on the old version",
			func() error { return checkReplicaVersions(infos, b.VersionID) },
			func() error { return checkReplicaVersions(stale, b.VersionID) }},
		{"replayed round with another digest",
			func() error { return checkSameDigests(digests, slices.Clone(digests)) },
			func() error { return checkSameDigests(digests, tampered) }},
		{"recall below the floor",
			func() error { return checkRecall(0.9, 1, recallFloor) },
			func() error { return checkRecall(0.5, 1, recallFloor) }},
	}
	for _, c := range cases {
		if err := c.good(); err != nil {
			t.Errorf("%s: real output rejected: %v", c.name, err)
		}
		if err := c.bad(); err == nil {
			t.Errorf("%s: corrupted output accepted", c.name)
		}
	}
}
