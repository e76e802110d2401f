package repro

// Allocation gates for the byte-level hot path (docs/PERFORMANCE.md). Each
// test pins an AllocsPerRun ceiling on a fixed corpus document, so a change
// that quietly reintroduces per-request allocation — a string conversion in
// the tokenizer, a forgotten pooled buffer, an escaping scratch slice —
// fails here with the measured count instead of surfacing months later as a
// throughput regression. Ceilings are measured numbers plus ~20% headroom,
// not aspirations: lower them when the measured count drops.
//
// The structural layers have hard zero gates (warm target 0): the arena
// parse itself (tagtree.TestParseArenaWarmZeroAllocs) and the template
// fingerprint scan (TestFingerprintDocAllocs below). Full discovery
// legitimately allocates its per-request answer — rankings, score maps, the
// Result — and the recognizer's regexp matches; those ceilings bound that
// spend.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// allocDoc returns the fixed document the ceilings are calibrated against.
func allocDoc(t *testing.T) *corpus.Document {
	t.Helper()
	docs := corpus.TestDocuments()
	if len(docs) == 0 {
		t.Fatal("empty test corpus")
	}
	return docs[0]
}

// skipUnderRace skips allocation/throughput gates when the race detector is
// on: its instrumentation allocates shadow state of its own and slows the
// hot path several-fold, so the measured numbers gate the detector, not the
// code. The arena-safety tests below do NOT skip — -race is their point.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation/throughput gates are meaningless under -race instrumentation")
	}
}

func TestDiscoverAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	doc := []byte(d.HTML)
	arena := tagtree.AcquireArena()
	defer arena.Release()

	t.Run("NoOntology", func(t *testing.T) {
		// Parse + heuristics + answer assembly; no recognizer. Measured 63
		// on the seed corpus document.
		const ceiling = 63
		opts := core.Options{Arena: arena}
		got := testing.AllocsPerRun(50, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("DiscoverBytes (no ontology) allocates %.0f/run, ceiling %d", got, ceiling)
		}
	})

	t.Run("Metrics", func(t *testing.T) {
		// A warmed registry adds nothing: every stage, heuristic and
		// outcome series is indexed after the first call, so the lookups
		// allocate 0 and no span attribute is built without a trace.
		want := testing.AllocsPerRun(50, func() {
			if _, err := core.DiscoverBytes(doc, core.Options{Arena: arena}); err != nil {
				t.Fatal(err)
			}
		})
		opts := core.Options{Arena: arena, Metrics: obs.NewRegistry()}
		for i := 0; i < 2; i++ { // register every series, then publish the index
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("DiscoverBytes (warmed registry) allocates %.0f/run, want %.0f as without metrics", got, want)
		}
	})

	t.Run("MetricsAndTrace", func(t *testing.T) {
		// A fresh trace per document, as a traced request pays: the trace,
		// one span per stage and the stage attributes, on top of the
		// NoOntology count. Measured 78 (234 before repeat metric lookups
		// were indexed and stage attributes were built only for a trace).
		const ceiling = 78
		opts := core.Options{Arena: arena, Metrics: obs.NewRegistry()}
		got := testing.AllocsPerRun(50, func() {
			opts.Trace = obs.NewTrace()
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("DiscoverBytes (metrics and trace) allocates %.0f/run, ceiling %d", got, ceiling)
		}
	})

	t.Run("WithOntology", func(t *testing.T) {
		// Adds the recognizer scan: each regexp match allocates its index
		// pair, so this scales with the document's match count. Measured
		// 635 on the seed corpus document (1111 before the candidate-driven
		// scan).
		const ceiling = 635
		opts := core.Options{Ontology: BuiltinOntology(string(d.Site.Domain)), Arena: arena}
		got := testing.AllocsPerRun(20, func() {
			if _, err := core.DiscoverBytes(doc, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("DiscoverBytes (ontology) allocates %.0f/run, ceiling %d", got, ceiling)
		}
	})
}

func TestSplitAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, err := core.DiscoverBytes([]byte(d.HTML), core.Options{Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	// One Record (with its cleaned text) per boundary, plus the merge-walk's
	// collapsed text chunks. Measured 92 on the seed corpus document.
	const ceiling = 120
	got := testing.AllocsPerRun(50, func() {
		core.Split(d.HTML, res)
	})
	if got > ceiling {
		t.Errorf("Split allocates %.0f/run, ceiling %d", got, ceiling)
	}
}

func TestFingerprintDocAllocs(t *testing.T) {
	skipUnderRace(t)
	d := allocDoc(t)
	template.FingerprintDoc(d.HTML) // warm the scanner pool
	// The tag-only fingerprint scan is fully pooled: zero allocations warm,
	// exactly — this is what keeps the template fast path ~50× cheaper than
	// full discovery.
	if got := testing.AllocsPerRun(50, func() {
		template.FingerprintDoc(d.HTML)
	}); got != 0 {
		t.Errorf("FingerprintDoc allocates %.0f/run warm, want 0", got)
	}
}

// hitRecorder is a reusable in-process ResponseWriter, so the gate below
// counts the handler's allocations and not the test's.
type hitRecorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *hitRecorder) Header() http.Header  { return w.h }
func (w *hitRecorder) WriteHeader(code int) { w.status = code }
func (w *hitRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// TestDiscoverCacheHitAllocs gates a /v1/discover result-cache hit through
// the bare handler (the middleware stack with no logger, metrics or trace
// store): the envelope is decoded in one pass from a pooled body buffer and
// the stored rendering is written as is. Measured 18 on the seed corpus
// document (49 when encoding/json decoded the body and every hit
// re-encoded the answer).
func TestDiscoverCacheHitAllocs(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 23
	d := allocDoc(t)
	body, err := json.Marshal(map[string]string{"html": d.HTML, "ontology": string(d.Site.Domain)})
	if err != nil {
		t.Fatal(err)
	}
	h := httpapi.NewHandler(httpapi.Config{CacheSize: 16})
	w := &hitRecorder{h: make(http.Header)}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/discover", rd)
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		w.status = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.String())
		}
	}
	serve() // miss: computes and caches
	want := append([]byte(nil), w.body.Bytes()...)
	got := testing.AllocsPerRun(200, serve)
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("cache hit body differs from the miss body")
	}
	if got > ceiling {
		t.Errorf("/v1/discover cache hit allocates %.0f/run, ceiling %d", got, ceiling)
	}
	t.Logf("/v1/discover cache hit: %.0f allocs/run", got)
}

// TestDiscoverCacheMissAllocs gates a /v1/discover result-cache miss
// through the handler as deployed: JSON request logs, a metrics registry,
// a trace store and the result cache. Two documents alternate through a
// one-entry cache, so every request misses, runs full discovery and evicts.
// The bare handler (no logger, metrics or traces) is logged beside it: the
// difference is what observability costs per request. Measured 135
// deployed against 105 bare on the first two seed corpus documents (311
// deployed before repeat metric lookups were indexed and stage attributes
// were built only for a trace).
func TestDiscoverCacheMissAllocs(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 135
	docs := corpus.TestDocuments()[:2]
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		b, err := json.Marshal(map[string]string{"html": d.HTML})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	measure := func(cfg httpapi.Config) float64 {
		h := httpapi.NewHandler(cfg)
		w := &hitRecorder{h: make(http.Header)}
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, "/v1/discover", rd)
		n := 0
		serve := func() {
			rd.Reset(bodies[n%len(bodies)])
			n++
			clear(w.h)
			w.status = 0
			w.body.Reset()
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body.String())
			}
		}
		for range 2 * len(bodies) { // register every series, then publish the index
			serve()
		}
		return testing.AllocsPerRun(100, serve)
	}
	bare := measure(httpapi.Config{CacheSize: 1})
	deployed := measure(httpapi.Config{
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics:   obs.NewRegistry(),
		Traces:    obs.NewTraceStore(obs.TraceStoreConfig{Capacity: 512}),
		Service:   "boundary",
		CacheSize: 1,
	})
	t.Logf("/v1/discover cache miss: %.0f allocs/run deployed, %.0f bare", deployed, bare)
	if deployed > ceiling {
		t.Errorf("/v1/discover cache miss (deployed) allocates %.0f/run, ceiling %d", deployed, ceiling)
	}
}

// TestArenaReleaseDoesNotCorruptWireResults is the consumer-side half of the
// arena safety contract: everything a caller keeps from a discovery must be
// deep-copied out before the arena is released (see docs/PERFORMANCE.md).
// The wire snapshot taken while the arena was live must be byte-identical to
// the nil-arena answer even after the arena has been released,
// re-acquired, and dirtied by parsing a different document.
//
// The nil-arena Result is the other half: it owns its memory, so it must
// survive the same pool churn untouched. It is taken before any pooled
// arena is released, so if nil-arena callers were ever routed through the
// pool, the dirtying parse below would overwrite its tree.
func TestArenaReleaseDoesNotCorruptWireResults(t *testing.T) {
	docs := corpus.TestDocuments()
	if len(docs) < 2 {
		t.Fatal("need two corpus documents")
	}
	d, other := docs[0], docs[1]
	opts := core.Options{Ontology: BuiltinOntology(string(d.Site.Domain))}

	ref, err := core.Discover(d.HTML, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRecords, wantExplain := fromCore(ref), core.Split(d.HTML, ref), core.Explain(ref)

	arena := tagtree.AcquireArena()
	aopts := opts
	aopts.Arena = arena
	res, err := core.DiscoverBytes([]byte(d.HTML), aopts)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fromCore(res) // deep copy, taken while the arena is live
	arena.Release()

	// Dirty the pool: the released arena (or one recycled from it) parses an
	// unrelated document, overwriting any scratch the snapshot could have
	// wrongly aliased.
	arena2 := tagtree.AcquireArena()
	defer arena2.Release()
	dirty := core.Options{Ontology: BuiltinOntology(string(other.Site.Domain)), Arena: arena2}
	if _, err := core.DiscoverBytes([]byte(other.HTML), dirty); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(snapshot, want) {
		t.Errorf("wire snapshot corrupted after arena release:\n got %+v\nwant %+v", snapshot, want)
	}
	if got := fromCore(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-arena result changed under pool churn:\n got %+v\nwant %+v", got, want)
	}
	if got := core.Split(d.HTML, ref); !reflect.DeepEqual(got, wantRecords) {
		t.Errorf("nil-arena Split changed under pool churn: got %d records, want %d", len(got), len(wantRecords))
	}
	if got := core.Explain(ref); got != wantExplain {
		t.Errorf("nil-arena Explain changed under pool churn:\n got %s\nwant %s", got, wantExplain)
	}
}
