// Package obs is the pipeline's observability layer: a concurrency-safe
// metrics registry with Prometheus text-format exposition, per-stage trace
// spans for one Discover call, and structured HTTP request logging with
// generated request IDs. It is stdlib-only by design — the repo's no-new-deps
// rule extends to operational tooling — and every type tolerates a nil
// receiver so instrumented code needs no "is observability on?" branches.
package obs

import (
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency-histogram bucket upper bounds, in
// seconds. They match the conventional Prometheus client defaults so
// dashboards written against other services carry over.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// StageBuckets are bucket bounds for in-process pipeline stages — tag-tree
// build, a single heuristic's ranking — which complete in microseconds to
// milliseconds on Figure-2-sized documents, well under DefBuckets' floor.
// Shared by every stage histogram so per-heuristic latencies compare
// directly.
var StageBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005,
	.01, .025, .05, .1, .25, 1,
}

// Registry holds named metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. A nil *Registry is
// a valid no-op sink: every lookup returns a nil metric whose methods do
// nothing, so callers may thread an optional registry without nil checks.
//
// Lookups are cheap enough to repeat on every request: a lookup of an
// existing series hashes its name and label pairs in key order and finds
// it in a published snapshot of the index, taking no lock and allocating
// nothing. Only a lookup the snapshot misses — a series' first lookups —
// takes the lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	index    map[uint64]*series // seriesHash → chain of series; guarded by mu
	// read is a copy of index that lookups read without the lock. Chains
	// are shared: a series is never changed once indexed.
	read   atomic.Pointer[map[uint64]*series]
	misses int // lookups of existing series read missed since it was published; guarded by mu
	seed   maphash.Seed
}

// family is one metric name: its metadata plus one series per label set.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	buckets []float64
	series  []*series // in registration order
}

type series struct {
	fam   *family
	pairs [][2]string // sorted label key/value pairs
	value any         // *Counter, *Gauge or *Histogram
	next  *series     // next series in index with the same hash
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		index:    make(map[uint64]*series),
		seed:     maphash.MakeSeed(),
	}
}

// Label arguments alternate key, value, key, value...; an unpaired trailing
// key gets an empty value. A series is identified by its pairs in key order
// (a stable sort, so duplicate keys keep their argument order), whatever
// order they were passed in. The registry only reads the caller's slice,
// which may have spare capacity the caller still uses.

// labelValue returns the value of the pair whose key is labels[i-1].
func labelValue(labels []string, i int) string {
	if i < len(labels) {
		return labels[i]
	}
	return ""
}

// keysSorted reports whether labels' pairs are already in key order.
func keysSorted(labels []string) bool {
	for i := 2; i < len(labels); i += 2 {
		if labels[i] < labels[i-2] {
			return false
		}
	}
	return true
}

// sortLabels appends labels to dst with the pairs in key order and the
// trailing value, if missing, supplied. Insertion sort is what sort.Slice
// runs on sets this small: the same order, without its allocations.
func sortLabels(dst, labels []string) []string {
	dst = append(dst, labels...)
	if len(dst)%2 != 0 {
		dst = append(dst, "")
	}
	for i := 2; i < len(dst); i += 2 {
		for j := i; j > 0 && dst[j] < dst[j-2]; j -= 2 {
			dst[j], dst[j+1], dst[j-2], dst[j-1] = dst[j-2], dst[j-1], dst[j], dst[j+1]
		}
	}
	return dst
}

// seriesHash hashes a metric name and its label pairs in key order. Equal
// hashes are confirmed by series.matches, so a collision costs a
// comparison, never a wrong series.
func (r *Registry) seriesHash(name string, labels []string) uint64 {
	h := maphash.String(r.seed, name)
	for i := 0; i < len(labels); i += 2 {
		h = (h ^ maphash.String(r.seed, labels[i])) * 0x100000001b3
		h = (h ^ maphash.String(r.seed, labelValue(labels, i+1))) * 0x100000001b3
	}
	return h
}

// matches reports whether s is the series name, typ and labels (pairs in
// key order) identify.
func (s *series) matches(name, typ string, labels []string) bool {
	if s.fam.name != name || s.fam.typ != typ || len(s.pairs) != (len(labels)+1)/2 {
		return false
	}
	for i, p := range s.pairs {
		if p[0] != labels[2*i] || p[1] != labelValue(labels, 2*i+1) {
			return false
		}
	}
	return true
}

// find returns the series name, typ and labels identify in index's hash
// chain h, or nil.
func find(index map[uint64]*series, h uint64, name, typ string, labels []string) *series {
	for s := index[h]; s != nil; s = s.next {
		if s.matches(name, typ, labels) {
			return s
		}
	}
	return nil
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders sorted pairs (plus any extras, appended last) as
// {k="v",...}, or "" for an empty set.
func renderLabels(pairs [][2]string, extra ...[2]string) string {
	all := append(append([][2]string{}, pairs...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// maxStackPairs is how many unsorted label pairs a lookup puts in order
// without allocating; no series in this repository has more than three.
const maxStackPairs = 4

// metric returns (creating if needed) the series for name+labels, checking
// that the family's type matches. Registering the same name under two
// different types is a programming error and panics.
func (r *Registry) metric(name, help, typ string, buckets []float64, labels []string) any {
	if !keysSorted(labels) {
		var buf [2 * maxStackPairs]string
		labels = sortLabels(buf[:0], labels)
	}
	h := r.seriesHash(name, labels)
	if read := r.read.Load(); read != nil {
		if s := find(*read, h, name, typ, labels); s != nil {
			return s.value
		}
	}
	return r.register(h, name, help, typ, buckets, labels)
}

// register is metric's path for a lookup the snapshot missed: under the
// lock it finds or creates the family and the series, copying labels (pairs
// in key order), which may live on the caller's stack. A series found here
// is one the snapshot does not hold yet; once such misses reach the
// snapshot's size, it is copied anew, so copying costs O(1) per miss
// amortized, and a new series stops taking the lock after at most that
// many lookups. Creating a series copies nothing: a fresh registry's first
// lookups cost no more than before the index existed.
func (r *Registry) register(h uint64, name, help, typ string, buckets []float64, labels []string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, created := r.create(h, name, help, typ, buckets, labels)
	if !created {
		r.misses++
		if read := r.read.Load(); read == nil || r.misses >= len(*read) {
			snap := maps.Clone(r.index)
			r.read.Store(&snap)
			r.misses = 0
		}
	}
	return s.value
}

// create returns the series name, typ and labels identify, creating it
// (and its family) if needed, and whether it did. The caller holds r.mu.
func (r *Registry) create(h uint64, name, help, typ string, buckets []float64, labels []string) (*series, bool) {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if s := find(r.index, h, name, typ, labels); s != nil {
		return s, false
	}
	pairs := make([][2]string, (len(labels)+1)/2)
	for i := range pairs {
		pairs[i] = [2]string{labels[2*i], labelValue(labels, 2*i+1)}
	}
	s := &series{fam: f, pairs: pairs, next: r.index[h]}
	switch typ {
	case "counter":
		s.value = &Counter{}
	case "gauge":
		s.value = &Gauge{}
	case "histogram":
		s.value = newHistogram(f.buckets)
	}
	f.series = append(f.series, s)
	r.index[h] = s
	return s, true
}

// Counter returns the counter for name and the given alternating
// key, value label arguments, creating it on first use. help is recorded on
// first registration of the name. A nil registry returns a nil no-op counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.metric(name, help, "counter", nil, labels).(*Counter)
}

// Gauge is the gauge analogue of Counter.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.metric(name, help, "gauge", nil, labels).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for name+labels. buckets are
// upper bounds in ascending order; nil means DefBuckets. The bucket layout is
// fixed by the first registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.metric(name, help, "histogram", buckets, labels).(*Histogram)
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter by d; negative deltas are ignored.
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases (or, for negative d, decreases) the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds d to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (cumulative "le" buckets
// in the exposition, like Prometheus client histograms).
type Histogram struct {
	buckets []float64       // upper bounds, ascending
	counts  []atomic.Uint64 // per-bucket counts; last entry is +Inf
	sum     atomic.Uint64   // float64 bits
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket with v <= le, as sort.SearchFloat64s finds it (NaN
	// lands in +Inf); a linear scan, as stage latencies fall in the
	// first few buckets.
	i := 0
	for i < len(h.buckets) && !(h.buckets[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot every family's series under the lock: a first use of a new
	// label set writes the families map and a family's series list, so
	// reading them unlocked is a data race. Label keys are rendered and
	// values read atomically after.
	type entry struct {
		key string
		s   *series
	}
	type snapshot struct {
		f      *family
		series []entry
	}
	r.mu.Lock()
	fams := make([]snapshot, 0, len(r.families))
	for _, f := range r.families {
		snap := snapshot{f: f, series: make([]entry, len(f.series))}
		for i, s := range f.series {
			snap.series[i].s = s
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	for _, snap := range fams {
		for i := range snap.series {
			snap.series[i].key = renderLabels(snap.series[i].s.pairs)
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })

	var b strings.Builder
	for _, snap := range fams {
		f := snap.f
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sort.Slice(snap.series, func(i, j int) bool { return snap.series[i].key < snap.series[j].key })
		for _, e := range snap.series {
			k, s := e.key, e.s
			switch v := s.value.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(v.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(v.Value()))
			case *Histogram:
				var cum uint64
				for i, le := range v.buckets {
					cum += v.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, renderLabels(s.pairs, [2]string{"le", formatFloat(le)}), cum)
				}
				cum += v.counts[len(v.buckets)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, renderLabels(s.pairs, [2]string{"le", "+Inf"}), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, k, formatFloat(v.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, k, cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
