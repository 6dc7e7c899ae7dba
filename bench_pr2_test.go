// PR2 benchmarks: the alloc-discipline trajectory of the hot paths. These are
// the benchmarks `make bench` serializes into BENCH_PR2.json (via
// cmd/benchjson) so the kernel/pooling work of this PR — and any later
// regression — is measured against a recorded baseline. The train-step and
// graph-embedding halves live in internal/core where the unexported step
// functions are reachable.
package intellitag_test

import (
	"testing"

	"intellitag/internal/mat"
	"intellitag/internal/obs"
	"intellitag/internal/serving"
)

// BenchmarkPR2_MatMul measures the allocating matmul kernel (one fresh output
// matrix per call) at a transformer-block-ish shape.
func BenchmarkPR2_MatMul(b *testing.B) {
	g := mat.NewRNG(1)
	x := mat.New(64, 64)
	y := mat.New(64, 64)
	g.Normal(x, 1)
	g.Normal(y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMul(x, y)
	}
}

// BenchmarkPR2_ServeRecommend measures one serving recommendation: scoring a
// tenant's candidate tags against a session history on a frozen model — the
// compute inside Engine.RecommendTags once the memo misses.
func BenchmarkPR2_ServeRecommend(b *testing.B) {
	m := newBenchIntelliTag()
	m.Freeze()
	cands := benchWorld.TagsOfTenant(0)
	history := benchWorld.Sessions[0].Clicks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreCandidates(history, cands)
	}
}

// newBenchServeEngine builds a frozen-model engine with a warm per-session
// recommendation memo, so the measured loop is the serve fast path: memo copy
// plus whatever instrumentation is installed.
func newBenchServeEngine(b *testing.B) *serving.Engine {
	b.Helper()
	train, _, _ := benchWorld.SplitSessions(0.8, 0.1)
	catalog, index := serving.BuildCatalog(benchWorld, train)
	m := newBenchIntelliTag()
	m.Freeze()
	engine := serving.NewEngine(catalog, index, m, nil, nil)
	engine.Click(ctx, 0, 1, catalog.TenantTags[0][0], 5)
	engine.RecommendTags(ctx, 0, 1, 5) // warm the memo
	return engine
}

// BenchmarkPR2_ServeRecommendMemo is the telemetry-off baseline of the
// memo-hit RecommendTags path (PR 2's 2 allocs/op budget).
func BenchmarkPR2_ServeRecommendMemo(b *testing.B) {
	engine := newBenchServeEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RecommendTags(ctx, 0, 1, 5)
	}
}

// BenchmarkPR2_ServeRecommendMemoTelemetry is the same path with the full
// telemetry spine installed but the request unsampled — the production
// steady state. The budget is at most one extra alloc/op over
// BenchmarkPR2_ServeRecommendMemo: the one allowed alloc is the sentinel
// context an unsampled request carries so nested spans skip the sampling
// draw; counters and histograms are atomics only.
func BenchmarkPR2_ServeRecommendMemoTelemetry(b *testing.B) {
	engine := newBenchServeEngine(b)
	// Effectively-never sampling: every request pays the counter/histogram
	// atomics and the span nil check, none builds a span tree.
	engine.SetTelemetry(obs.NewRegistry(), obs.NewTracer(1<<30, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RecommendTags(ctx, 0, 1, 5)
	}
}

// BenchmarkServeClick measures one full user click turn on a frozen model:
// history update, memo-miss re-recommendation over the tenant's catalog, and
// the BM25 predicted questions for the session's clicked-tag query, which are
// scored from the version's pre-scanned phrase terms. The loop replays the
// held-out sessions click by click and ends each session after its last
// click, so the query grows and resets as it does in traffic.
func BenchmarkServeClick(b *testing.B) {
	train, _, test := benchWorld.SplitSessions(0.8, 0.1)
	catalog, index := serving.BuildCatalog(benchWorld, train)
	m := newBenchIntelliTag()
	m.Freeze()
	engine := serving.NewEngine(catalog, index, m, nil, nil)
	type click struct {
		tenant, session, tag int
		last                 bool
	}
	var clicks []click
	for i, s := range test {
		for j, tag := range s.Clicks {
			clicks = append(clicks, click{s.Tenant, i, tag, j == len(s.Clicks)-1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clicks[i%len(clicks)]
		engine.Click(ctx, c.tenant, c.session, c.tag, 5)
		if c.last {
			engine.EndSession(c.session)
		}
	}
}
