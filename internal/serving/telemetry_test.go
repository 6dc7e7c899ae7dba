package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"intellitag/internal/obs"
)

// postJSON fires one API request against the test server and fails on a
// non-200.
func postJSON(t *testing.T, url string, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// TestServerTelemetryRoundTrip drives the instrumented API and asserts the
// whole spine end to end: op counters and latency histograms on /metrics,
// per-route HTTP series, the sampled span tree on /debug/trace, and the
// enriched /healthz report.
func TestServerTelemetryRoundTrip(t *testing.T) {
	e := newTestEngine(t, nil)
	server := NewServer(NewABRouter(e))
	reg := obs.NewRegistry()
	server.EnableTelemetry(reg, obs.NewTracer(1, 16)) // sample every request
	srv := httptest.NewServer(server)
	defer srv.Close()

	postJSON(t, srv.URL+"/recommend", `{"tenant":0,"session":1,"k":3}`)
	var clicked clickResponse
	if err := json.Unmarshal(postJSON(t, srv.URL+"/recommend", `{"tenant":0,"session":2,"k":3}`), &clicked); err != nil {
		t.Fatalf("decode recommend: %v", err)
	}
	postJSON(t, srv.URL+"/click", `{"tenant":0,"session":2,"tag":`+jsonInt(clicked.Tags[0].Tag)+`,"k":3}`)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		`intellitag_http_requests_total{route="recommend"} 2`,
		`intellitag_http_requests_total{route="click"} 1`,
		`intellitag_requests_total{bucket="pop",op="recommend"} 3`, // 2 direct + 1 via click
		`intellitag_requests_total{bucket="pop",op="click"} 1`,
		`intellitag_router_requests_total{bucket="0",model="pop"} 3`,
		`intellitag_request_latency_seconds_count{bucket="pop",op="recommend"} 3`,
		`intellitag_http_request_seconds_count{route="recommend"} 2`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q:\n%s", want, exposition)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatalf("GET /debug/trace: %v", err)
	}
	var traces struct {
		Traces []obs.SpanTree `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	resp.Body.Close()
	if len(traces.Traces) != 3 {
		t.Fatalf("got %d traces, want 3: %+v", len(traces.Traces), traces)
	}
	// Newest first: the click trace must show
	// http.click -> click -> (recommend -> score, predict).
	clickTree := traces.Traces[0]
	if clickTree.Name != "http.click" || len(clickTree.Children) != 1 {
		t.Fatalf("click root wrong: %+v", clickTree)
	}
	inner := clickTree.Children[0]
	if inner.Name != "click" || len(inner.Children) != 2 {
		t.Fatalf("click span wrong: %+v", inner)
	}
	if inner.Children[0].Name != "recommend" || inner.Children[1].Name != "predict" {
		t.Fatalf("click children wrong: %+v", inner.Children)
	}
	if len(inner.Children[0].Children) != 1 || inner.Children[0].Children[0].Name != "score" {
		t.Fatalf("recommend child should score: %+v", inner.Children[0])
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.GoVersion == "" {
		t.Fatalf("healthz identity wrong: %+v", health)
	}
	if len(health.Buckets) != 1 || health.Buckets[0] != "pop" {
		t.Fatalf("healthz buckets wrong: %+v", health)
	}
	if health.Requests != 3 {
		t.Fatalf("healthz requests = %d, want 3", health.Requests)
	}
	if health.UptimeSec < 0 {
		t.Fatalf("negative uptime: %+v", health)
	}
}

// TestEngineIndicatorGauges checks the live CTR/HIR business gauges that the
// simulator feeds.
func TestEngineIndicatorGauges(t *testing.T) {
	e := newTestEngine(t, nil)
	reg := obs.NewRegistry()
	e.SetTelemetry(reg, nil)
	for i := 0; i < 4; i++ {
		e.NoteImpression(0, 50, 1)
	}
	e.NoteUserClick()
	if got := reg.Gauge("intellitag_ctr", "bucket", "pop").Value(); got != 0.25 {
		t.Fatalf("ctr gauge = %g, want 0.25 (1 click / 4 impressions)", got)
	}
	e.RecommendTags(ctx, 0, 51, 3)
	e.Escalate(0, 51)
	e.EndSession(51)
	e.RecommendTags(ctx, 0, 52, 3)
	e.EndSession(52)
	if got := reg.Gauge("intellitag_hir", "bucket", "pop").Value(); got != 0.5 {
		t.Fatalf("hir gauge = %g, want 0.5 (1 escalation / 2 sessions)", got)
	}
	if got := reg.Counter("intellitag_sim_escalations_total", "bucket", "pop").Value(); got != 1 {
		t.Fatalf("escalations counter = %d, want 1", got)
	}
	// Uninstall: hot-path calls keep working without instruments.
	e.SetTelemetry(nil, nil)
	e.NoteImpression(0, 50, 1)
	if got := reg.Counter("intellitag_sim_impressions_total", "bucket", "pop").Value(); got != 4 {
		t.Fatalf("uninstalled engine still counted: %d", got)
	}
}

// TestWriteJSONEncodeFailure pins the satellite fix: an encode failure must
// surface as a 500 with no partial body, never a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure returned %d, want 500", rec.Code)
	}
	if !strings.HasPrefix(rec.Body.String(), "encode response:") {
		t.Fatalf("partial JSON leaked ahead of the error text: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"ok": 1})
	if rec.Code != http.StatusCreated {
		t.Fatalf("good encode returned %d, want 201", rec.Code)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["ok"] != 1 {
		t.Fatalf("good encode body wrong: %q (%v)", rec.Body.String(), err)
	}
}

func jsonInt(n int) string {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(n); err != nil {
		panic(err)
	}
	return strings.TrimSpace(buf.String())
}

// TestAdminOnlineEndpoint pins the online-status surface: 503 until a status
// source is attached, then the source's JSON, and the same payload embedded
// in /healthz's online field.
func TestAdminOnlineEndpoint(t *testing.T) {
	server := NewServer(NewABRouter(newTestEngine(t, nil)))
	srv := httptest.NewServer(server)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/admin/online")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("detached /admin/online = %d, want 503", resp.StatusCode)
	}

	server.SetOnlineStatus(func() any { return map[string]string{"state": "probation"} })
	resp, err = http.Get(srv.URL + "/admin/online")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status["state"] != "probation" {
		t.Fatalf("/admin/online = %d %v", resp.StatusCode, status)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Online map[string]string `json:"online"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Online["state"] != "probation" {
		t.Fatalf("healthz online field = %v", health.Online)
	}
}
