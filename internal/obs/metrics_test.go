package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", "kind", "a")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	if r.Counter("jobs_total", "Jobs.", "kind", "a") != c {
		t.Error("same name+labels did not return the same counter")
	}
	if r.Counter("jobs_total", "Jobs.", "kind", "b") == c {
		t.Error("different labels returned the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 55.65 {
		t.Errorf("sum = %v, want 55.65", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`latency_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`latency_bucket{le="1"} 3`,
		`latency_bucket{le="10"} 4`,
		`latency_bucket{le="+Inf"} 5`,
		`latency_sum 55.65`,
		`latency_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestPrometheusGolden locks the full exposition format: HELP/TYPE comments,
// sorted families and series, escaped label values.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "B counter.", "route", `with"quote`).Add(2)
	r.Counter("b_total", "B counter.", "route", "plain").Inc()
	r.Gauge("a_gauge", "A gauge.").Set(1.5)
	h := r.Histogram("c_seconds", "C histogram.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	want := `# HELP a_gauge A gauge.
# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total B counter.
# TYPE b_total counter
b_total{route="plain"} 1
b_total{route="with\"quote"} 2
# HELP c_seconds C histogram.
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="1"} 2
c_seconds_bucket{le="+Inf"} 2
c_seconds_sum 1
c_seconds_count 2
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines; run with -race this is the registry's thread-safety proof.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, n = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Registration races too: look the metrics up every time.
				r.Counter("ops_total", "Ops.").Inc()
				r.Gauge("level", "Level.").Add(1)
				r.Histogram("dur", "Durations.", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", "Ops.").Value(); got != goroutines*n {
		t.Errorf("counter = %v, want %d", got, goroutines*n)
	}
	if got := r.Gauge("level", "Level.").Value(); got != goroutines*n {
		t.Errorf("gauge = %v, want %d", got, goroutines*n)
	}
	if got := r.Histogram("dur", "Durations.", []float64{0.5}).Count(); got != goroutines*n {
		t.Errorf("histogram count = %v, want %d", got, goroutines*n)
	}
}

// TestNilRegistry checks the no-op contract instrumented code relies on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	if v := r.Counter("x", "").Value(); v != 0 {
		t.Errorf("nil counter value = %v", v)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// goldenSequence drives a registry through a fixed call sequence covering
// every exposition feature: three types, label sets passed in different
// orders, an odd-length label list, escaped values, a histogram whose
// buckets a later lookup tries to change, and repeated lookups.
func goldenSequence(r *Registry) {
	for i := 0; i < 3; i++ {
		r.Counter("http_requests_total", "HTTP requests.", "route", "POST /v1/discover", "method", "POST", "code", "200").Inc()
	}
	r.Counter("http_requests_total", "HTTP requests.", "code", "200", "method", "POST", "route", "POST /v1/discover").Inc()
	r.Counter("http_requests_total", "HTTP requests.", "method", "GET", "route", "GET /metrics", "code", "404").Add(2)
	r.Counter("odd_total", "Odd label list.", "a", "1", "trailing").Inc()
	r.Counter("odd_total", "Odd label list.", "a", "1", "trailing", "").Inc()
	r.Counter("escaped_total", "Escaped values.", "v", "back\\slash \"quoted\"\nnewline").Inc()
	r.Gauge("in_flight", "In flight.").Set(3)
	r.Gauge("in_flight", "In flight.").Dec()
	r.Gauge("unhelpful", "").Add(-2.5)
	h := r.Histogram("stage_seconds", "Stage latency.", []float64{0.001, 0.01, 0.1}, "stage", "parse")
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	r.Histogram("stage_seconds", "Stage latency.", []float64{1, 2}, "stage", "combine").Observe(0.02)
	r.Histogram("stage_seconds", "Other help.", nil, "stage", "parse").Observe(0.002)
	r.Histogram("default_seconds", "Default buckets.", nil).Observe(0.3)
}

// goldenExposition is WritePrometheus after goldenSequence, as rendered by
// the registry before lookups were indexed by label set: the index must
// not change a byte of the exposition.
const goldenExposition = `# HELP default_seconds Default buckets.
# TYPE default_seconds histogram
default_seconds_bucket{le="0.0005"} 0
default_seconds_bucket{le="0.001"} 0
default_seconds_bucket{le="0.0025"} 0
default_seconds_bucket{le="0.005"} 0
default_seconds_bucket{le="0.01"} 0
default_seconds_bucket{le="0.025"} 0
default_seconds_bucket{le="0.05"} 0
default_seconds_bucket{le="0.1"} 0
default_seconds_bucket{le="0.25"} 0
default_seconds_bucket{le="0.5"} 1
default_seconds_bucket{le="1"} 1
default_seconds_bucket{le="2.5"} 1
default_seconds_bucket{le="5"} 1
default_seconds_bucket{le="10"} 1
default_seconds_bucket{le="+Inf"} 1
default_seconds_sum 0.3
default_seconds_count 1
# HELP escaped_total Escaped values.
# TYPE escaped_total counter
escaped_total{v="back\\slash \"quoted\"\nnewline"} 1
# HELP http_requests_total HTTP requests.
# TYPE http_requests_total counter
http_requests_total{code="200",method="POST",route="POST /v1/discover"} 4
http_requests_total{code="404",method="GET",route="GET /metrics"} 2
# HELP in_flight In flight.
# TYPE in_flight gauge
in_flight 2
# HELP odd_total Odd label list.
# TYPE odd_total counter
odd_total{a="1",trailing=""} 2
# HELP stage_seconds Stage latency.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="combine",le="0.001"} 0
stage_seconds_bucket{stage="combine",le="0.01"} 0
stage_seconds_bucket{stage="combine",le="0.1"} 1
stage_seconds_bucket{stage="combine",le="+Inf"} 1
stage_seconds_sum{stage="combine"} 0.02
stage_seconds_count{stage="combine"} 1
stage_seconds_bucket{stage="parse",le="0.001"} 2
stage_seconds_bucket{stage="parse",le="0.01"} 4
stage_seconds_bucket{stage="parse",le="0.1"} 5
stage_seconds_bucket{stage="parse",le="+Inf"} 6
stage_seconds_sum{stage="parse"} 0.5585
stage_seconds_count{stage="parse"} 6
# TYPE unhelpful gauge
unhelpful -2.5
`

func TestExpositionGoldenSequence(t *testing.T) {
	r := NewRegistry()
	goldenSequence(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenExposition {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), goldenExposition)
	}
}

// TestRepeatedLookupAllocs: a lookup the registry has seen before, with the
// same label arguments in the same order, allocates nothing.
func TestRepeatedLookupAllocs(t *testing.T) {
	r := NewRegistry()
	code := "200"
	lookups := func() {
		r.Counter("http_requests_total", "Requests.", "route", "POST /v1/discover", "method", "POST", "code", code).Inc()
		r.Gauge("http_requests_in_flight", "In flight.").Inc()
		r.Histogram("boundary_stage_duration_seconds", "Stages.", StageBuckets, "stage", "parse").Observe(1e-5)
		r.Histogram("http_request_duration_seconds", "Latency.", nil, "route", "POST /v1/discover").Observe(0.01)
	}
	lookups() // first registration
	lookups() // the first repeat publishes the index lookups read
	if got := testing.AllocsPerRun(100, lookups); got != 0 {
		t.Errorf("repeated lookups allocate %.0f/run, want 0", got)
	}
}

// TestLabelOrderOneSeries: the same labels passed in another order reach
// the same series, which the exposition lists once.
func TestLabelOrderOneSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", "route", "r", "code", "200")
	b := r.Counter("x_total", "X.", "code", "200", "route", "r")
	if a != b {
		t.Fatal("reordered labels returned a different counter")
	}
	// Repeat lookups, in both orders, keep resolving to the one series.
	if r.Counter("x_total", "X.", "code", "200", "route", "r") != a ||
		r.Counter("x_total", "X.", "route", "r", "code", "200") != a {
		t.Fatal("repeat lookups disagree")
	}
	a.Inc()
	b.Inc()
	var w strings.Builder
	if err := r.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.String(), "\nx_total{"); got != 1 {
		t.Errorf("exposition lists %d x_total series, want 1:\n%s", got, w.String())
	}
	if !strings.Contains(w.String(), `x_total{code="200",route="r"} 2`) {
		t.Errorf("exposition missing the merged series:\n%s", w.String())
	}
}

// TestOddLabelList: an unpaired trailing key gets the empty value, and
// names the same series as passing that empty value explicitly.
func TestOddLabelList(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("odd_total", "", "a", "1", "k")
	if r.Counter("odd_total", "", "a", "1", "k", "") != c {
		t.Error("odd-length list and explicit empty value reached different series")
	}
	if r.Counter("odd_total", "", "a", "1", "k") != c {
		t.Error("repeated odd-length lookup returned a different series")
	}
	c.Inc()
	var w strings.Builder
	if err := r.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), `odd_total{a="1",k=""} 1`) {
		t.Errorf("trailing key not exposed with an empty value:\n%s", w.String())
	}
}

// TestLabelsSliceNotWritten: the registry only reads the caller's label
// slice. An odd-length slice with spare capacity must keep whatever its
// caller stored past its length — forwarders such as the bulk engine's
// counter helper pass their own slices straight through.
func TestLabelsSliceNotWritten(t *testing.T) {
	r := NewRegistry()
	backing := []string{"a", "1", "k", "caller-owned"}
	labels := backing[:3]
	for i := 0; i < 2; i++ { // first registration, then the repeat lookup
		r.Counter("odd_total", "", labels...).Inc()
		r.Histogram("odd_seconds", "", nil, labels...).Observe(1)
		if backing[3] != "caller-owned" {
			t.Fatalf("lookup %d wrote %q into the caller's spare capacity", i, backing[3])
		}
	}
	// The registry keeps its own copy: changing the caller's slice later
	// must not move a repeat lookup to another series.
	c := r.Counter("odd_total", "", "a", "1", "k")
	labels[1] = "2"
	if r.Counter("odd_total", "", "a", "1", "k") != c {
		t.Error("mutating the caller's slice changed the registered series")
	}
}

// TestTypeMismatchPanicsOnExistingSeries: asking for an existing series
// under another type still panics after the series has been looked up again.
func TestTypeMismatchPanicsOnExistingSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "", "route", "r").Inc()
	r.Counter("m_total", "", "route", "r").Inc() // repeat lookup
	defer func() {
		if recover() == nil {
			t.Error("requesting an existing counter series as a histogram did not panic")
		}
	}()
	r.Histogram("m_total", "", nil, "route", "r")
}

// TestHistogramBucketsFixedByFirstRegistration: later lookups of the name —
// the same series or a new label set — cannot change the bucket layout.
func TestHistogramBucketsFixedByFirstRegistration(t *testing.T) {
	r := NewRegistry()
	first := r.Histogram("h_seconds", "", []float64{1, 2}, "l", "a")
	if r.Histogram("h_seconds", "", []float64{5}, "l", "a") != first {
		t.Fatal("same series returned a different histogram")
	}
	other := r.Histogram("h_seconds", "", []float64{5}, "l", "b")
	other.Observe(3)
	var w strings.Builder
	if err := r.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_seconds_bucket{l="a",le="1"} 0`,
		`h_seconds_bucket{l="b",le="2"} 0`,
		`h_seconds_bucket{l="b",le="+Inf"} 1`,
	} {
		if !strings.Contains(w.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, w.String())
		}
	}
	if strings.Contains(w.String(), `le="5"`) {
		t.Errorf("a later lookup changed the bucket layout:\n%s", w.String())
	}
}

// BenchmarkRegistryLookup times the per-document lookups of the discovery
// path: Repeat on a warmed registry (every request after the first), First
// on a fresh registry per iteration (what a new server pays once per
// series).
func BenchmarkRegistryLookup(b *testing.B) {
	stages := []string{"parse", "fanout", "candidates", "heuristic/OM", "heuristic/RP",
		"heuristic/SD", "heuristic/IT", "heuristic/HT", "combine"}
	heuristics := []string{"OM", "RP", "SD", "IT", "HT"}
	lookups := func(r *Registry) {
		for _, s := range stages {
			r.Histogram("boundary_stage_duration_seconds", "Stages.", StageBuckets, "stage", s).Observe(1e-5)
		}
		for _, h := range heuristics {
			r.Histogram("boundary_heuristic_duration_seconds", "Heuristics.", StageBuckets, "heuristic", h).Observe(1e-5)
			r.Counter("boundary_heuristic_runs_total", "Runs.", "heuristic", h).Inc()
		}
		r.Counter("boundary_documents_total", "Documents.", "outcome", "ok").Inc()
		r.Counter("http_requests_total", "Requests.", "route", "POST /v1/discover", "method", "POST", "code", "200").Inc()
	}
	b.Run("Repeat", func(b *testing.B) {
		r := NewRegistry()
		lookups(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookups(r)
		}
	})
	b.Run("First", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lookups(NewRegistry())
		}
	})
}
