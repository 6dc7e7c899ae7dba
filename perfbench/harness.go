package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"intellitag/internal/serving"
)

// turnKind is the API call a turn makes.
type turnKind int

const (
	recCold turnKind = iota // /recommend on a session with no clicks
	click                   // /click
	recMemo                 // /recommend right after a /click
	ask                     // /ask
)

var routes = [...]string{recCold: "/recommend", click: "/click", recMemo: "/recommend", ask: "/ask"}

// turn is one API request of a planned session.
type turn struct {
	kind     turnKind
	tenant   int
	local    int // session index within the round
	tag      int // clicked tag (click)
	k        int
	question string // ask text; on other kinds, a probe question for the traced run
	history  []int  // the session's clicks up to and including this turn
	last     bool   // last turn of its session
}

// sidWidth is the fixed width of the session-id field in an encoded body.
// JSON allows whitespace before the following comma, so a round's ids are
// patched into the same bytes without re-encoding.
const sidWidth = 16

// shadowOffset separates the session ids of the traced run's engine-level
// replay from those of the HTTP turns.
const shadowOffset = 1 << 40

// slot is one turn's request, encoded once.
type slot struct {
	body  []byte
	sidAt int
	rd    *bytes.Reader
	req   *http.Request
}

// plan is one round of sessions: the same turns, in the same order, are
// replayed every round under fresh session ids.
type plan struct {
	turns    []turn
	sessions int
	slots    []slot
}

// encode builds every turn's request body and request object.
func (p *plan) encode() {
	p.slots = make([]slot, len(p.turns))
	pad := bytes.Repeat([]byte{' '}, sidWidth)
	for i, t := range p.turns {
		var b []byte
		b = append(b, `{"tenant":`...)
		b = strconv.AppendInt(b, int64(t.tenant), 10)
		b = append(b, `,"session":`...)
		at := len(b)
		b = append(b, pad...)
		switch t.kind {
		case click:
			b = append(b, `,"tag":`...)
			b = strconv.AppendInt(b, int64(t.tag), 10)
			fallthrough
		case recCold, recMemo:
			b = append(b, `,"k":`...)
			b = strconv.AppendInt(b, int64(t.k), 10)
		case ask:
			q, _ := json.Marshal(t.question) // a string always encodes
			b = append(b, `,"question":`...)
			b = append(b, q...)
		}
		b = append(b, '}')
		rd := bytes.NewReader(b)
		req, err := http.NewRequest(http.MethodPost, routes[t.kind], io.NopCloser(rd))
		if err != nil {
			panic(err) // constant method and path: cannot fail
		}
		req.ContentLength = int64(len(b))
		p.slots[i] = slot{body: b, sidAt: at, rd: rd, req: req}
	}
}

// sid is the session id of a round-local session in round r.
func (p *plan) sid(r, local int) int { return 1 + r*p.sessions + local }

// setRound patches round r's session ids into every body.
func (p *plan) setRound(r int) {
	var digits [20]byte
	for i := range p.slots {
		s := &p.slots[i]
		d := strconv.AppendInt(digits[:0], int64(p.sid(r, p.turns[i].local)), 10)
		field := s.body[s.sidAt : s.sidAt+sidWidth]
		n := copy(field, d)
		for j := n; j < sidWidth; j++ {
			field[j] = ' '
		}
	}
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.h }
func (w *recorder) WriteHeader(code int)        { w.code = code }
func (w *recorder) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *recorder) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.body.Reset()
}

// client is the single closed-loop client: it sends a turn, waits for the
// response, then sends the next.
type client struct {
	srv *serving.Server
	w   recorder
}

func newClient(srv *serving.Server) *client {
	return &client{srv: srv, w: recorder{h: http.Header{}}}
}

// do serves one turn and returns its latency. The response stays in c.w.
func (c *client) do(s *slot) time.Duration {
	s.rd.Reset(s.body)
	c.w.reset()
	start := time.Now()
	c.srv.ServeHTTP(&c.w, s.req)
	return time.Since(start)
}

// ok reports whether the last response was a 200 with a well-formed body.
func (c *client) ok() bool { return c.w.code == http.StatusOK && json.Valid(c.w.body.Bytes()) }

// hash fingerprints the last response body (64-bit FNV-1a, inline so the
// client allocates nothing per turn).
func (c *client) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, b := range c.w.body.Bytes() {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// roundWindow is one measured round's account.
type roundWindow struct {
	turns    int64
	serving  time.Duration // wall time minus the client's waits on a refresh
	cpu      time.Duration // process CPU, all goroutines
	mallocs  uint64
	bytes    uint64
	p50, p99 float64 // turn latency, µs
}

// meter accounts for the measured phase one round at a time: start opens a
// window, stop closes it. The end-to-end metrics are medians over windows, so
// a burst of load from outside the process that spoils a round moves them
// less than it would a whole-run total. Work done between stop and start
// (an inline refresh) is left out.
type meter struct {
	windows []roundWindow
	lat     []int64       // current window's turn latencies, ns
	waited  time.Duration // current window's client waits on a refresh

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (m *meter) start() {
	m.lat = m.lat[:0]
	m.waited = 0
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	w := roundWindow{turns: int64(len(m.lat)), serving: time.Since(m.t0) - m.waited, cpu: processCPU() - m.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - m.ms0.Mallocs
	w.bytes = ms.TotalAlloc - m.ms0.TotalAlloc
	w.p50, w.p99 = latencyQuantiles(m.lat)
	m.windows = append(m.windows, w)
}

// record counts one served turn.
func (m *meter) record(d time.Duration) { m.lat = append(m.lat, int64(d)) }

// quantile returns the q-quantile of xs (linear interpolation between order
// statistics); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// latencyQuantiles returns the p50 and p99 of ns samples in microseconds.
func latencyQuantiles(ns []int64) (p50, p99 float64) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	return quantile(us, 0.5), quantile(us, 0.99)
}

// report is one run's outcome before it is printed.
type report struct {
	mu        sync.Mutex // guards problems: daily_refresh checks from two goroutines
	workload  string
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

// maxProblems bounds the failed-check messages kept for printing.
const maxProblems = 20

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

// check records a failed output check; nil errors are ignored.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
	} else if len(r.problems) == maxProblems {
		r.problems = append(r.problems, "further check failures omitted")
	}
}

func (r *report) checkf(format string, args ...any) { r.check(fmt.Errorf(format, args...)) }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) result() result {
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// endToEndMetrics lists every end-to-end metric with its unit. BENCHMARK.json
// declares, with a bound, exactly the bounded ones, in this order; the others
// are measured and printed under unbounded_metrics (README.md says why).
var endToEndMetrics = []struct {
	name, unit string
	bounded    bool
}{
	{"setup_s", "s", true},
	{"allocs_per_turn", "count", true},
	{"alloc_bytes_per_turn", "B", true},
	{"heap_retained_mib", "MiB", true},
	{"turns_per_s", "1/s", false},
	{"turn_p50_us", "us", false},
	{"turn_p99_us", "us", false},
	{"cpu_us_per_turn", "us", false},
	{"refresh_s", "s", false},
	{"rss_peak_mib", "MiB", false},
}

// endToEnd fills the end-to-end metrics from the measured rounds' windows.
// keep is the served system: the caller drops its own state (plan, runner,
// checkers) first, so that heap_retained_mib, read after a forced GC, is the
// live heap of the served system alone.
func (r *report) endToEnd(windows []roundWindow, setups, refreshes []float64, keep any) {
	med := func(f func(w roundWindow) float64) float64 {
		var xs []float64
		for _, w := range windows {
			if w.turns > 0 {
				xs = append(xs, f(w))
			}
		}
		return median(xs)
	}
	v := map[string]float64{
		"setup_s":              median(setups),
		"refresh_s":            median(refreshes),
		"turns_per_s":          med(func(w roundWindow) float64 { return float64(w.turns) / w.serving.Seconds() }),
		"turn_p50_us":          med(func(w roundWindow) float64 { return w.p50 }),
		"turn_p99_us":          med(func(w roundWindow) float64 { return w.p99 }),
		"cpu_us_per_turn":      med(func(w roundWindow) float64 { return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.turns) }),
		"allocs_per_turn":      med(func(w roundWindow) float64 { return float64(w.mallocs) / float64(w.turns) }),
		"alloc_bytes_per_turn": med(func(w roundWindow) float64 { return float64(w.bytes) / float64(w.turns) }),
	}
	// Two cycles: the first leaves sync.Pool contents in their victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	v["heap_retained_mib"] = float64(ms.HeapAlloc) / (1 << 20)
	v["rss_peak_mib"] = peakRSSMiB()
	for _, m := range endToEndMetrics {
		r.set(m.name, m.unit, v[m.name])
	}
}

// logPaths prints the serving paths the rankings took to standard error.
func logPaths(engines []*serving.Engine) {
	st := engineStats(engines)
	fmt.Fprintf(os.Stderr, "rankings by path: ann %d, fallback %d, exhaustive %d, coldstart %d\n",
		st.ANN, st.Fallback, st.Exhaustive, st.ColdStart)
}

// engineStats sums the retrieval-path counters of a set of engines.
func engineStats(engines []*serving.Engine) serving.RetrievalStats {
	var s serving.RetrievalStats
	for _, e := range engines {
		st := e.RetrievalStats()
		s.ANN += st.ANN
		s.Fallback += st.Fallback
		s.Exhaustive += st.Exhaustive
		s.ColdStart += st.ColdStart
	}
	return s
}

func computations(s serving.RetrievalStats) int64 {
	return s.ANN + s.Fallback + s.Exhaustive + s.ColdStart
}
