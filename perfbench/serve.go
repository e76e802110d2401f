package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/ontology"
)

// newDeployed builds the serving system under test the way cmd/serve does:
// JSON request logs (to io.Discard here), a metrics registry, a 512-trace
// store and a 1024-entry result cache.
func newDeployed() (*httpapi.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	srv, err := httpapi.NewServer(httpapi.Config{
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics:   reg,
		Traces:    obs.NewTraceStore(obs.TraceStoreConfig{Capacity: 512}),
		Service:   "boundary",
		CacheSize: cacheCapacity,
	})
	return srv, reg, err
}

// newBare is the same handler without logger, metrics or traces: the
// difference between the two is what observability costs.
func newBare() (*httpapi.Server, error) {
	return httpapi.NewServer(httpapi.Config{CacheSize: cacheCapacity})
}

func ontologyOf(d *doc) *ontology.Ontology {
	if d.ontology == "" {
		return nil
	}
	return ontology.Builtin(d.ontology)
}

var discoverURL = &url.URL{Path: "/v1/discover"}

// recorder is a reusable in-process http.ResponseWriter: one per client, so
// driving the handler costs the client almost nothing.
type recorder struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: make(http.Header)} }

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

// serve sends one POST /v1/discover for d through h and returns the status
// and the response body (valid until the next call).
func (w *recorder) serve(h http.Handler, d *doc) (int, []byte) {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           discoverURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(d.body)),
		ContentLength: int64(len(d.body)),
		Host:          "bench",
		RemoteAddr:    "127.0.0.1:1",
		RequestURI:    "/v1/discover",
	}
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.buf.Bytes()
}

// verifier checks served answers against the reference answers. Inside the
// timed window it only compares a response with the first response served
// for the same document (a memcmp); decoding and comparing with the
// reference happens afterwards, in finish.
type verifier struct {
	w        *workload
	first    []atomic.Pointer[[]byte]
	count    []atomic.Int64 // 200 responses per document
	attempts atomic.Int64
	errs     atomic.Int64 // non-200 responses

	mu  sync.Mutex
	odd []oddBody // responses that differ from their document's first one
}

type oddBody struct {
	doc  int32
	body []byte
}

func newVerifier(w *workload) *verifier {
	return &verifier{
		w:     w,
		first: make([]atomic.Pointer[[]byte], len(w.docs)),
		count: make([]atomic.Int64, len(w.docs)),
	}
}

func (v *verifier) check(i int32, status int, body []byte) {
	v.attempts.Add(1)
	if status != http.StatusOK {
		v.errs.Add(1)
		return
	}
	v.count[i].Add(1)
	p := v.first[i].Load()
	if p == nil {
		cp := append([]byte(nil), body...)
		if v.first[i].CompareAndSwap(nil, &cp) {
			return
		}
		p = v.first[i].Load()
	}
	if !bytes.Equal(*p, body) {
		v.mu.Lock()
		v.odd = append(v.odd, oddBody{i, append([]byte(nil), body...)})
		v.mu.Unlock()
	}
}

// wireAnswer is the checked part of a /v1/discover response.
type wireAnswer struct {
	Separator string   `json:"separator"`
	TopTags   []string `json:"top_tags"`
}

func (v *verifier) bodyOK(i int32, body []byte) bool {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return false
	}
	return v.w.docs[i].ref.equal(a.Separator, a.TopTags)
}

// verdict is the outcome of all checks of one run.
type verdict struct {
	attempted, failed int
	answered          int // distinct documents answered correctly
	truthOK           int // of those, the ones whose separator is in Document.Truth
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.answered += o.answered
	v.truthOK += o.truthOK
}

// finish judges every response recorded so far: all responses of a
// document whose first response is wrong fail, as does every later
// response that differs from the reference. Quality counts each distinct
// document once: repeats of a document carry the same, checked answer.
func (v *verifier) finish() verdict {
	out := verdict{attempted: int(v.attempts.Load()), failed: int(v.errs.Load())}
	for i := range v.first {
		n := int(v.count[i].Load())
		if n == 0 {
			continue
		}
		if !v.bodyOK(int32(i), *v.first[i].Load()) {
			out.failed += n
			continue
		}
		out.answered++
		if v.w.docs[i].truthOK() {
			out.truthOK++
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, o := range v.odd {
		if v.bodyOK(o.doc, *v.first[o.doc].Load()) && !v.bodyOK(o.doc, o.body) {
			out.failed++
		}
	}
	return out
}

// release drops the retained response bodies before the heap is measured.
func (v *verifier) release() {
	for i := range v.first {
		v.first[i].Store(nil)
	}
	v.odd = nil
}

// loadResult is one closed-loop window.
type loadResult struct {
	elapsed time.Duration
	lat     []float64 // per-request latency, ms
	done    []float64 // per-request completion, seconds into the window
}

// closedLoop runs `clients` callers against h, each sending its next
// request as soon as its previous reply arrives, until dur has passed.
// Requests take stream positions from pos in order.
func closedLoop(h http.Handler, w *workload, v *verifier, pos *atomic.Int64, clients int, dur time.Duration) loadResult {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *loadResult) {
			defer wg.Done()
			rec := newRecorder()
			p.lat = make([]float64, 0, 1<<16)
			p.done = make([]float64, 0, 1<<16)
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				i := w.docAt(int(pos.Add(1) - 1))
				status, body := rec.serve(h, w.docs[i])
				t1 := time.Now()
				p.lat = append(p.lat, float64(t1.Sub(t0))/1e6)
				p.done = append(p.done, t1.Sub(start).Seconds())
				v.check(i, status, body)
			}
		}(&parts[c])
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	for _, p := range parts {
		res.lat = append(res.lat, p.lat...)
		res.done = append(res.done, p.done...)
	}
	return res
}

// binWidth is the length of the bins a timed window is cut into. Rates and
// latency percentiles are taken per bin and the median bin is reported, so
// a few seconds of interference from the host move the result little.
const binWidth = 2.0

// windowStats are the binned figures of one window.
type windowStats struct {
	rate, p50, p99 float64 // documents/s, ms, ms
	samples        int
}

// summarize bins the window's requests by completion time. A window shorter
// than two bins is one bin.
func (r loadResult) summarize() windowStats {
	secs := r.elapsed.Seconds()
	nb := int(secs / binWidth)
	width := binWidth
	if nb < 2 {
		nb, width = 1, secs
	}
	bins := make([][]float64, nb)
	for i, d := range r.done {
		if b := int(d / width); b < nb {
			bins[b] = append(bins[b], r.lat[i])
		} else if nb == 1 {
			bins[0] = append(bins[0], r.lat[i])
		}
	}
	var rates, p50, p99 []float64
	for _, b := range bins {
		sort.Float64s(b)
		rates = append(rates, float64(len(b))/width)
		p50 = append(p50, quantile(b, 0.5))
		p99 = append(p99, quantile(b, 0.99))
	}
	return windowStats{rate: median(rates), p50: median(p50), p99: median(p99), samples: len(r.lat)}
}

// prewarm sends each hot-set document once, in order, so serve-hot's timed
// window starts with its hot set cached.
func prewarm(h http.Handler, w *workload, v *verifier) {
	if w.name != serveHot {
		return
	}
	rec := newRecorder()
	for i := int32(0); i < hotSet; i++ {
		status, body := rec.serve(h, w.docs[i])
		v.check(i, status, body)
	}
}
