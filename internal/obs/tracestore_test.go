package obs

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// finished returns a published-ready trace with the given status.
func finished(service, name, status string) *Trace {
	t := NewTrace()
	t.SetRoot(service, name)
	if status != "" && status != StatusOK {
		t.SetStatus(status, "test "+status)
	}
	t.Finish()
	return t
}

func TestTraceStoreKeepsEverythingByDefault(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	for i := 0; i < 5; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5 (no sampling configured)", s.Len())
	}
}

func TestTraceStoreHeadSampling(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 10, SlowFraction: -1})
	for i := 0; i < 100; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	if got := s.Len(); got != 10 {
		t.Errorf("kept %d of 100 healthy traces with SampleEvery=10, want 10", got)
	}
}

// TestTraceStoreAlwaysKeepsBadTraces: errored, degraded, and shed traces
// bypass head sampling entirely.
func TestTraceStoreAlwaysKeepsBadTraces(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000, SlowFraction: -1})
	s.Publish(finished("svc", "op", StatusOK)) // first healthy trace is kept
	var bad []TraceID
	for _, status := range []string{StatusError, StatusDegraded, StatusShed} {
		tr := finished("svc", "op", status)
		bad = append(bad, tr.ID())
		s.Publish(tr)
	}
	for i := 0; i < 50; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	for i, id := range bad {
		if _, ok := s.Get(id); !ok {
			t.Errorf("bad trace %d (%s) was sampled out; must always be kept", i, id)
		}
	}
	list := s.List()
	reasons := make(map[string]bool)
	for _, sum := range list {
		reasons[sum.Kept] = true
	}
	for _, want := range []string{"error", "degraded", "shed"} {
		if !reasons[want] {
			t.Errorf("no retained trace with keep reason %q in %v", want, reasons)
		}
	}
}

// TestTraceStoreKeepsSlowTail: once the recent-duration window is primed,
// a trace far above the latency tail is kept even under aggressive sampling.
func TestTraceStoreKeepsSlowTail(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000})
	for i := 0; i < 30; i++ {
		tr := finished("svc", "op", StatusOK)
		d := tr.Snapshot()
		d.Duration = time.Millisecond
		s.publish(d)
	}
	slow := finished("svc", "op", StatusOK)
	d := slow.Snapshot()
	d.Duration = time.Second
	s.publish(d)
	frags, ok := s.Get(slow.ID())
	if !ok {
		t.Fatal("slow-tail trace was sampled out; must always be kept")
	}
	if len(frags) != 1 {
		t.Errorf("fragments = %d, want 1", len(frags))
	}
	var sum *TraceSummary
	for _, row := range s.List() {
		if row.TraceID == slow.ID().String() {
			sum = &row
			break
		}
	}
	if sum == nil || sum.Kept != "slow" {
		t.Errorf("slow trace keep reason = %+v, want \"slow\"", sum)
	}
}

// TestTraceStoreMergesFragments: fragments published under one TraceID from
// different services merge into a single stored trace, and a late fragment of
// a kept trace is never sampled out.
func TestTraceStoreMergesFragments(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{SampleEvery: 1000, SlowFraction: -1})
	router := finished("router", "POST /v1/discover", StatusOK)
	s.Publish(router)
	// Burn the sampler so an independently-published trace would be dropped.
	for i := 0; i < 20; i++ {
		s.Publish(finished("svc", "op", StatusOK))
	}
	replica := NewTraceFrom(router.SpanContext())
	replica.SetRoot("local-1", "POST /v1/discover")
	replica.Finish()
	s.Publish(replica)

	frags, ok := s.Get(router.ID())
	if !ok {
		t.Fatal("merged trace missing from store")
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2 (router + replica)", len(frags))
	}
	if frags[0].Service != "router" || frags[1].Service != "local-1" {
		t.Errorf("fragment services = %s, %s", frags[0].Service, frags[1].Service)
	}
	for _, row := range s.List() {
		if row.TraceID == router.ID().String() && row.Fragments != 2 {
			t.Errorf("summary fragments = %d, want 2", row.Fragments)
		}
	}
}

func TestTraceStoreEvictsOldestBeyondCapacity(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 3, SlowFraction: -1})
	var ids []TraceID
	for i := 0; i < 5; i++ {
		tr := finished("svc", "op", StatusOK)
		ids = append(ids, tr.ID())
		s.Publish(tr)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", s.Len())
	}
	for _, id := range ids[:2] {
		if _, ok := s.Get(id); ok {
			t.Errorf("oldest trace %s survived eviction", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Get(id); !ok {
			t.Errorf("recent trace %s was evicted", id)
		}
	}
}

func TestTraceStoreHandlerListAndTree(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	parent := NewTrace()
	parent.SetRoot("router", "POST /v1/discover")
	hop := parent.StartSpan("cluster/peer/local-1")
	hop.End()
	parent.Finish()
	child := NewTraceFrom(parent.ChildContext(hop))
	child.SetRoot("local-1", "POST /v1/discover")
	child.Add("parse", time.Millisecond)
	child.Finish()
	s.Publish(parent)
	s.Publish(child)

	// JSON listing.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if w.Code != 200 {
		t.Fatalf("list status = %d", w.Code)
	}
	var env struct {
		Published int `json:"published"`
		Kept      int `json:"kept"`
		Traces    []TraceSummary
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("list is not JSON: %v\n%s", err, w.Body)
	}
	if env.Published != 2 || env.Kept != 1 || len(env.Traces) != 1 {
		t.Errorf("published=%d kept=%d traces=%d, want 2/1/1", env.Published, env.Kept, len(env.Traces))
	}

	// Single-trace text tree: the replica fragment must nest under the
	// router's hop span.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?trace="+parent.ID().String(), nil))
	if w.Code != 200 {
		t.Fatalf("tree status = %d: %s", w.Code, w.Body)
	}
	tree := w.Body.String()
	hopLine, replicaLine := -1, -1
	for _, line := range strings.Split(tree, "\n") {
		if strings.Contains(line, "cluster/peer/local-1") {
			hopLine = indentOf(line)
		}
		if strings.Contains(line, "local-1 POST") {
			replicaLine = indentOf(line)
		}
	}
	if hopLine < 0 || replicaLine < 0 {
		t.Fatalf("tree missing hop or replica fragment:\n%s", tree)
	}
	if replicaLine <= hopLine {
		t.Errorf("replica fragment (indent %d) must nest under hop span (indent %d):\n%s",
			replicaLine, hopLine, tree)
	}

	// Unknown and malformed IDs.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET",
		"/debug/traces?trace=4bf92f3577b34da6a3ce929d0e0e4736", nil))
	if w.Code != 404 {
		t.Errorf("unknown trace status = %d, want 404", w.Code)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?trace=nope", nil))
	if w.Code != 400 {
		t.Errorf("malformed trace id status = %d, want 400", w.Code)
	}
}

func indentOf(line string) int {
	return len(line) - len(strings.TrimLeft(line, " "))
}

func TestNilTraceStoreIsNoOp(t *testing.T) {
	var s *TraceStore
	s.Publish(NewTrace())
	if s.Len() != 0 || s.List() != nil {
		t.Error("nil store must be inert")
	}
	if _, ok := s.Get(TraceID{1}); ok {
		t.Error("nil store Get must miss")
	}
}

// isSlowBySort is the original slow-tail rule: sort a copy of the window
// and compare dur with the sample at the SlowFraction cut.
func isSlowBySort(window []float64, fraction float64, dur time.Duration) bool {
	n := len(window)
	if n < 20 {
		return false
	}
	sorted := append([]float64(nil), window...)
	sort.Float64s(sorted)
	idx := int(float64(n) * (1 - fraction))
	if idx >= n {
		idx = n - 1
	}
	return dur.Seconds() >= sorted[idx]
}

// TestIsSlowMatchesSortRule: the counting pass gives the sort-based rule's
// answer on random windows (full and partial, with ties), fractions and
// durations, including durations equal to a sample.
func TestIsSlowMatchesSortRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		s := NewTraceStore(TraceStoreConfig{SlowFraction: -1})
		s.cfg.SlowFraction = []float64{0.01, 0.1, 0.5, 0.99, 1, rng.Float64()}[trial%6]
		samples := rng.Intn(2*slowWindow + 1)
		levels := 1 + rng.Intn(40) // few levels force ties
		for i := 0; i < samples; i++ {
			s.recent[s.recentN%slowWindow] = (time.Duration(rng.Intn(levels)) * time.Millisecond).Seconds()
			s.recentN++
		}
		window := s.recent[:min(s.recentN, slowWindow)]
		for probe := 0; probe < 10; probe++ {
			dur := time.Duration(rng.Intn(levels+1)) * time.Millisecond
			if probe%3 == 0 {
				dur += time.Duration(rng.Intn(int(time.Millisecond)))
			}
			if got, want := s.isSlow(dur), isSlowBySort(window, s.cfg.SlowFraction, dur); got != want {
				t.Fatalf("window of %d, fraction %v, dur %v: isSlow = %v, sort rule = %v",
					len(window), s.cfg.SlowFraction, dur, got, want)
			}
		}
	}
}

// TestIsSlowAllocatesNothing pins the per-request cost of the slow check.
func TestIsSlowAllocatesNothing(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	for i := 0; i < slowWindow; i++ {
		s.recent[i] = float64(i) / 1000
	}
	s.recentN = slowWindow
	if allocs := testing.AllocsPerRun(100, func() { s.isSlow(100 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("isSlow allocates %v times, want 0", allocs)
	}
}
