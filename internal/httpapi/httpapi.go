// Package httpapi exposes the record-boundary pipeline as a JSON HTTP
// service: boundary discovery, record splitting, full extraction, and
// document classification. It is the deployment surface a crawler fleet
// would call; cmd/serve wires it to a listener.
//
// Endpoints (all POST bodies and responses are JSON):
//
//	POST /v1/discover  {html|xml, ontology?}     → separator, scores, rankings
//	POST /v1/discover/batch  {documents: [...]}   → per-document results, in order
//	POST /v1/discover/stream  NDJSON tasks        → NDJSON outcomes, streamed in order
//	POST /v1/records   {html, ontology?}          → cleaned record chunks
//	POST /v1/extract   {html, ontology}           → populated database
//	POST /v1/classify  {html, ontology}           → document kind + evidence
//	POST /v1/wrapper/learn  {samples, ontology?}  → reusable site wrapper
//	POST /v1/wrapper/apply  {wrapper, html}       → records (409 on drift)
//	GET  /v1/ontologies                           → built-in ontology names
//	GET  /healthz                                 → ok
//	GET  /metrics                                 → Prometheus text format
//	GET  /debug/vars                              → expvar JSON
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/certainty"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dbgen"
	"repro/internal/faultinject"
	"repro/internal/htmlparse"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
	"repro/internal/wire"
)

// MaxBodyBytes bounds request bodies; 1998-era pages were tens of
// kilobytes, and even generous modern listings fit far below this.
const MaxBodyBytes = 8 << 20

// Config carries the service's observability sinks and serving-layer
// tuning. The zero value is valid: a nil Logger disables request logging, a
// nil Metrics disables metric collection (the /metrics endpoint then serves
// an empty exposition), a zero CacheSize disables the result cache, and a
// zero BatchWorkers sizes the batch pool to GOMAXPROCS.
type Config struct {
	// Logger receives one structured "request" record per served request.
	Logger *slog.Logger
	// Metrics collects HTTP middleware metrics and is threaded into the
	// pipeline via core.Options, so /metrics shows per-stage and
	// per-heuristic counters alongside the per-route HTTP series.
	Metrics *obs.Registry
	// CacheSize bounds the discovery result cache (entries). Repeated
	// /v1/discover (and batch) requests for an identical document and
	// options are answered from the cache; hits, misses, and evictions
	// surface as boundary_cache_* metrics. Zero or negative disables it.
	CacheSize int
	// CacheJournal, if non-empty, makes the result cache durable: puts and
	// evictions are appended to an NDJSON journal at this path (torn-tail
	// tolerant, compacting — see internal/journal) and replayed on startup,
	// so a restarted replica answers its first requests warm. Requires
	// CacheSize > 0 and the NewServer constructor (NewHandler has no error
	// path and ignores it).
	CacheJournal string
	// BatchWorkers bounds how many documents one /v1/discover/batch request
	// processes concurrently. Zero or negative selects GOMAXPROCS.
	BatchWorkers int
	// MaxInFlight bounds concurrently-processing /v1/ requests; excess
	// requests are shed with 429 + Retry-After (and counted in
	// boundary_requests_shed_total). Zero or negative disables shedding.
	MaxInFlight int
	// RequestTimeout bounds one /v1/ request's processing; an expired
	// request stops mid-pipeline and answers 503. Zero disables it.
	RequestTimeout time.Duration
	// Limits bounds per-document parse resources (document bytes beyond
	// the MaxBodyBytes envelope cap, tag-tree depth, node count); exceeded
	// limits answer 413/422. The zero value imposes no limits.
	Limits tagtree.Limits
	// Faults is the test-only fault-injection hook set threaded into the
	// pipeline (see internal/faultinject); nil in production.
	Faults *faultinject.Set
	// Traces enables distributed tracing: every request gets (or continues,
	// via its W3C traceparent header) a trace whose finished fragment is
	// published here, and GET /debug/traces serves the store. Nil disables
	// tracing.
	Traces *obs.TraceStore
	// Service names this process in trace fragments ("local-0", ...); empty
	// means "boundary".
	Service string
	// Templates, if non-nil, enables the learned-wrapper fast path: HTML
	// discover requests are fingerprinted before any parsing and served
	// straight from the store on a hit; misses learn the discovered
	// answer. The store also backs POST /v1/template/publish (cluster
	// warming), GET /v1/template/stats, and GET /v1/template/export (the
	// warmup state-transfer stream). See docs/WRAPPER.md.
	Templates *template.Store
	// Membership, if non-nil, mounts this node's gossip surface: POST
	// /v1/cluster/gossip (and /v1/cluster/join, its alias) exchange views,
	// GET /v1/cluster/members serves the member table. Membership routes
	// bypass load shedding and the request timeout so a saturated replica
	// keeps heartbeating. See docs/MEMBERSHIP.md.
	Membership *membership.Node
}

// server binds the handlers to one Config.
type server struct {
	cfg      Config
	cache    *resultCache
	inflight chan struct{} // nil when shedding is off; else a semaphore
}

// NewHandler returns the full service handler: the routing table wrapped in
// load shedding + request timeout (for /v1/ routes) and request-logging +
// metrics middleware, plus GET /metrics and GET /debug/vars. It has no
// error path, so it ignores Config.CacheJournal — durable callers use
// NewServer.
func NewHandler(cfg Config) http.Handler {
	cfg.CacheJournal = ""
	srv, _ := NewServer(cfg) // cannot fail without a journal
	return srv
}

// Server is the full service handler plus the resources it owns: with
// Config.CacheJournal set, Close compacts and closes the result-cache
// journal so the next start replays a minimal file.
type Server struct {
	http.Handler
	cache *resultCache
}

// Close flushes the server's durable state. Safe on a journal-less server.
func (s *Server) Close() error {
	return s.cache.close()
}

// NewServer is NewHandler with an error path: it opens (and replays) the
// result-cache journal when Config.CacheJournal is set, failing on a
// corrupt journal body rather than serving from a partial memory.
func NewServer(cfg Config) (*Server, error) {
	cache, err := newResultCache(cfg.CacheSize, cfg.CacheJournal, cfg.Metrics, cfg.Faults)
	if err != nil {
		return nil, err
	}
	s := server{cfg: cfg, cache: cache}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	mux := newMux(s)
	mux.Handle("GET /metrics", cfg.Metrics.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	var tracing *obs.Tracing
	if cfg.Traces != nil {
		mux.Handle("GET /debug/traces", cfg.Traces.Handler())
		tracing = &obs.Tracing{Store: cfg.Traces, Service: cfg.Service}
	}
	route := func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		return pattern
	}
	// Shedding sits inside the observability middleware so shed requests
	// still show up in the request log and the per-route HTTP metrics.
	h := obs.Middleware(s.limit(mux), cfg.Logger, cfg.Metrics, route, tracing)
	return &Server{Handler: h, cache: cache}, nil
}

// limit wraps next with the serving-layer protections for /v1/ routes: a
// bounded in-flight semaphore that sheds excess load with 429 + Retry-After,
// and a per-request processing deadline. Non-API paths (/healthz, /metrics,
// /debug/...) bypass both so the service stays observable while saturated.
func (s server) limit(next http.Handler) http.Handler {
	if s.inflight == nil && s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// /v1/cluster/ is membership traffic: shedding or timing out a
		// heartbeat under load would read as a dead peer and flap the ring,
		// so it bypasses both protections like the non-API paths do.
		if !strings.HasPrefix(r.URL.Path, "/v1/") || strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
			next.ServeHTTP(w, r)
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.cfg.Metrics.Counter("boundary_requests_shed_total",
					"Requests rejected with 429 because the in-flight limit was saturated.").Inc()
				w.Header().Set("Retry-After", "1")
				WriteError(w, http.StatusTooManyRequests,
					fmt.Errorf("server is at its in-flight limit of %d requests; retry shortly", cap(s.inflight)))
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// NewServeMux returns the bare routing table with no middleware and no
// observability endpoints — the pre-observability surface, kept for embedders
// that bring their own. Most callers want NewHandler.
func NewServeMux() *http.ServeMux {
	return newMux(server{})
}

func newMux(s server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	mux.HandleFunc("POST /v1/discover/batch", s.handleDiscoverBatch)
	mux.HandleFunc("POST /v1/discover/stream", s.handleDiscoverStream)
	mux.HandleFunc("POST /v1/records", s.handleRecords)
	mux.HandleFunc("POST /v1/extract", s.handleExtract)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("GET /v1/ontologies", s.handleOntologies)
	registerWrapperRoutes(mux, s)
	registerTemplateRoutes(mux, s)
	registerClusterRoutes(mux, s)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// pipelineOptions threads the server's metrics, resource limits, fault
// hooks, and the request's live trace (if any, from ctx) into a discovery
// call, so heuristic stage spans land on the same trace as the HTTP span.
func (s server) pipelineOptions(ctx context.Context, ont *ontology.Ontology, separatorList []string) core.Options {
	return core.Options{
		Ontology:      ont,
		SeparatorList: separatorList,
		Trace:         obs.TraceFrom(ctx),
		Metrics:       s.cfg.Metrics,
		Limits:        s.cfg.Limits,
		Faults:        s.cfg.Faults,
	}
}

// documentOptions is what a single-document endpoint (records, extract,
// wrapper learn and apply) runs under: the request's pipeline options on a
// pooled arena, armed with the server's wrapper store. Call release once
// the response is written.
func (s server) documentOptions(ctx context.Context, ont *ontology.Ontology, ontologySrc string, separatorList []string) (opts core.Options, release func()) {
	opts = s.pipelineOptions(ctx, ont, separatorList)
	opts.Arena = tagtree.AcquireArena()
	s.templatedOptions(&opts, "html", ontologySrc, separatorList)
	return opts, opts.Arena.Release
}

// WriteJSON writes v as the service's JSON body encoding (two-space
// indent) with the given status. The cluster router writes its own bodies
// through it too, so every JSON response renders alike.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, renderJSON(v))
}

// renderJSON returns v in the service's JSON body encoding: two-space
// indent and a trailing newline, byte-identical to a json.Encoder with
// SetIndent("", "  "). A value that cannot be encoded renders as no bytes.
func renderJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// writeBody writes an already rendered JSON body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // headers already sent; nothing useful to do on error
}

// WriteError writes the uniform error body with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, wire.ErrorBody{Error: err.Error()})
}

// decodeJSON parses a JSON body into v with the body limit applied,
// answering 400 on malformed input and 413 when the body exceeds
// MaxBodyBytes. Reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	return decodeOK(w, dec.Decode(v))
}

// decodeOK answers a body-decoding error — 413 when the body exceeded
// MaxBodyBytes, 400 otherwise — and reports whether there was none.
func decodeOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", maxErr.Limit))
		return false
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

// decode parses the shared request envelope. The body is read to its end
// (or to MaxBodyBytes) into a pooled buffer and decoded in one pass by
// wire.ReadRequest; accepted values, statuses and error texts are exactly
// decodeJSON's.
func decode(w http.ResponseWriter, r *http.Request) (*wire.Request, bool) {
	req, err := wire.ReadRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if !decodeOK(w, err) {
		return nil, false
	}
	return &req, true
}

// discoverResponse is the /v1/discover body: the discovery answer, plus the
// certainty evidence when the request asked for it with ?explain=1.
type discoverResponse struct {
	wire.Answer
	Explain *core.Explanation `json:"explain,omitempty"`
}

// discoverResult is one /v1/discover answer as the result cache holds it:
// the response, and its rendered body, produced on first use and then
// served as stored bytes by every later hit. Batch items and the cache
// journal use the response; the body is only ever written to a client.
type discoverResult struct {
	resp     *discoverResponse
	render   sync.Once
	rendered []byte
}

// newDiscoverResult wraps a computed response, passing errors through.
func newDiscoverResult(resp *discoverResponse, apiErr *apiError) (*discoverResult, *apiError) {
	if apiErr != nil {
		return nil, apiErr
	}
	return &discoverResult{resp: resp}, nil
}

// body returns the response rendered as WriteJSON renders it, exactly
// sized since a cached result keeps it for its lifetime.
func (d *discoverResult) body() []byte {
	d.render.Do(func() { d.rendered = bytes.Clone(renderJSON(d.resp)) })
	return d.rendered
}

// apiError pairs a client-visible error with the HTTP status it maps to.
type apiError struct {
	status int
	err    error
}

// ctxRelated reports whether the error came from an expired or canceled
// request context (as opposed to a property of the document itself).
func ctxRelated(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// pipelineError maps a discovery-pipeline error to its HTTP status:
// resource limits are the client's fault (413 for size, 422 for structure),
// an expired deadline is the server saying "too slow right now" (503), and
// everything else — ErrNoCandidates included — stays the long-standing 422.
func pipelineError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{http.StatusServiceUnavailable,
			fmt.Errorf("processing deadline exceeded: %w", err)}
	case errors.Is(err, context.Canceled):
		// The client hung up; the status is written into the void, but a
		// non-2xx keeps logs and metrics honest.
		return &apiError{http.StatusServiceUnavailable,
			fmt.Errorf("request canceled: %w", err)}
	case errors.Is(err, htmlparse.ErrTooLarge):
		return &apiError{http.StatusRequestEntityTooLarge, err}
	case errors.Is(err, tagtree.ErrTooDeep), errors.Is(err, tagtree.ErrTooManyNodes):
		return &apiError{http.StatusUnprocessableEntity, err}
	default:
		return &apiError{http.StatusUnprocessableEntity, err}
	}
}

// discoverOne runs one discover request through the cache and, on a miss,
// the full pipeline — the shared path behind /v1/discover and each document
// of /v1/discover/batch. Concurrent identical requests are deduplicated:
// one leader computes while followers wait on its result (see
// resultCache.join), so a thundering herd for a hot document costs one
// pipeline run instead of N.
func (s server) discoverOne(ctx context.Context, req *wire.Request) (*discoverResult, *apiError) {
	mode, doc, err := req.Document()
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err}
	}
	if s.cache == nil {
		return newDiscoverResult(s.computeDiscover(ctx, mode, doc, req))
	}
	key := RequestFingerprint(mode, doc, req.Ontology, req.SeparatorList)
	for {
		if res, ok := s.cache.get(key); ok {
			obs.TraceFrom(ctx).Add("cache/hit", 0)
			return res, nil
		}
		call, leader := s.cache.join(key)
		if leader {
			res, apiErr := newDiscoverResult(s.computeDiscover(ctx, mode, doc, req))
			s.cache.complete(key, call, res, apiErr)
			return res, apiErr
		}
		s.cache.metrics.Counter("boundary_cache_inflight_dedup_total",
			"Discovery requests answered by waiting on an identical in-flight computation.").Inc()
		select {
		case <-call.done:
			if call.err != nil && ctxRelated(call.err.err) && ctx.Err() == nil {
				// The leader's own context died, not ours: its failure
				// says nothing about the document. Take another lap —
				// cache check, then leadership election.
				continue
			}
			return call.res, call.err
		case <-ctx.Done():
			return nil, pipelineError(ctx.Err())
		}
	}
}

// computeDiscover is the cache-miss path: resolve the ontology and run the
// full pipeline under the request context. With a wrapper store configured,
// HTML documents first try the template fast path — a fingerprint lookup
// that skips parsing and heuristics entirely on a hit (see docs/WRAPPER.md);
// XML documents use the tree-level fast path inside core instead, because
// the raw-document scanner speaks only HTML's grammar.
func (s server) computeDiscover(ctx context.Context, mode, doc string, req *wire.Request) (*discoverResponse, *apiError) {
	if s.cfg.Templates != nil && mode == "html" {
		return s.computeDiscoverTemplated(ctx, doc, req)
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, _, apiErr := s.runDiscover(ctx, mode, doc, req, true, arena)
	if apiErr != nil {
		return nil, apiErr
	}
	return &discoverResponse{Answer: res.Answer()}, nil
}

// computeDiscoverTemplated is the document-level template fast path for HTML
// discover: fingerprint the raw bytes, serve a store hit without ever
// building the tag tree, and learn the full-pipeline answer on a miss. A
// document outside Config.Limits never hits, so it fails in full discovery
// exactly as on a cold server. The occasional hit is spot-checked — full
// discovery runs anyway and divergence evicts and relearns the entry — so a
// drifted wrapper cannot serve stale answers forever. runDiscover is called
// with the core-level fast path disabled: the lookup already happened here,
// and double-counting misses (or re-hitting the entry this request is about
// to verify) would corrupt both the metrics and the spot-check.
func (s server) computeDiscoverTemplated(ctx context.Context, doc string, req *wire.Request) (*discoverResponse, *apiError) {
	store := s.cfg.Templates
	start := time.Now()
	e, key, ok := store.LookupDoc(doc, template.Salt("html", req.Ontology, req.SeparatorList), s.cfg.Limits)
	if ok && !store.SpotCheck() {
		obs.TraceFrom(ctx).Add("template/hit", time.Since(start),
			"separator", e.Separator, "key", e.Key)
		return &discoverResponse{Answer: e.Answer}, nil
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, _, apiErr := s.runDiscover(ctx, "html", doc, req, false, arena)
	if apiErr != nil {
		return nil, apiErr
	}
	// e is the spot-checked entry on a hit, nil on a miss.
	store.Learn(e, core.NewTemplateEntry(key, res))
	return &discoverResponse{Answer: res.Answer()}, nil
}

// runDiscover runs the full pipeline and also returns the options it ran
// under, for callers (the explain path) that need the certainty table and
// combination rule that produced the result. templated enables core's
// tree-level template fast path; pass false when the caller already did its
// own store lookup (the document-level path) or must observe the real
// heuristics (explain, spot-checks). arena, when non-nil, holds the run's
// parse memory; the caller owns its lifetime and must not release
// it until it is done with the returned Result (which retains arena-owned
// tree nodes — see docs/PERFORMANCE.md).
func (s server) runDiscover(ctx context.Context, mode, doc string, req *wire.Request, templated bool, arena *tagtree.Arena) (*core.Result, core.Options, *apiError) {
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.FireCtx(ctx, "httpapi/discover"); err != nil {
			return nil, core.Options{}, pipelineError(err)
		}
	}
	ont, err := ontology.Resolve(req.Ontology)
	if err != nil {
		return nil, core.Options{}, &apiError{http.StatusBadRequest, err}
	}
	opts := s.pipelineOptions(ctx, ont, req.SeparatorList)
	opts.Arena = arena
	if templated {
		s.templatedOptions(&opts, mode, req.Ontology, req.SeparatorList)
	}
	var res *core.Result
	if mode == "html" {
		res, err = core.DiscoverContext(ctx, doc, opts)
	} else {
		res, err = core.DiscoverXMLContext(ctx, doc, opts)
	}
	if err != nil {
		return nil, opts, pipelineError(err)
	}
	return res, opts, nil
}

// templatedOptions arms opts with the server's wrapper store and the salt
// binding store keys to this request's answer-changing options — the same
// fields RequestFingerprint hashes, minus the document.
func (s server) templatedOptions(opts *core.Options, mode, ontologySrc string, separatorList []string) {
	if s.cfg.Templates == nil {
		return
	}
	opts.Templates = s.cfg.Templates
	opts.TemplateSalt = template.Salt(mode, ontologySrc, separatorList)
}

func (s server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		s.handleDiscoverExplain(w, r, req)
		return
	}
	res, apiErr := s.discoverOne(r.Context(), req)
	if apiErr != nil {
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	writeBody(w, http.StatusOK, res.body())
}

// handleDiscoverExplain is /v1/discover?explain=1: the same discovery, with
// each heuristic's certainty, decline reason, and the combination arithmetic
// attached to the response and the request's trace. It bypasses the result
// cache and the in-flight dedup on purpose — the plain path must stay
// byte-identical across cluster and single-node serving, and an explain
// response cached for a plain request (or vice versa) would break that.
func (s server) handleDiscoverExplain(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	mode, doc, err := req.Document()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// templated=false: an explanation must come from the real heuristics,
	// never from a stored wrapper.
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, opts, apiErr := s.runDiscover(r.Context(), mode, doc, req, false, arena)
	if apiErr != nil {
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	resp := &discoverResponse{Answer: res.Answer(), Explain: core.NewExplanation(res, opts)}
	obs.TraceFrom(r.Context()).Add("explain", 0, resp.Explain.TraceAttrs()...)
	WriteJSON(w, http.StatusOK, resp)
}

// recordBody is one split record on the wire.
type recordBody struct {
	Text  string `json:"text"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

func (s server) handleRecords(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	if req.HTML == "" {
		WriteError(w, http.StatusBadRequest, errors.New("html is required"))
		return
	}
	ont, err := ontology.Resolve(req.Ontology)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ropts, release := s.documentOptions(r.Context(), ont, req.Ontology, req.SeparatorList)
	defer release()
	res, err := core.DiscoverContext(r.Context(), req.HTML, ropts)
	if err != nil {
		apiErr := pipelineError(err)
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	var records []recordBody
	for _, rec := range core.Split(req.HTML, res) {
		records = append(records, recordBody{Text: rec.Text, Start: rec.Start, End: rec.End})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"separator": res.Separator,
		"records":   records,
	})
}

func (s server) handleExtract(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	if req.HTML == "" {
		WriteError(w, http.StatusBadRequest, errors.New("html is required"))
		return
	}
	if req.Ontology == "" {
		WriteError(w, http.StatusBadRequest, errors.New("ontology is required for extraction"))
		return
	}
	ont, err := ontology.Resolve(req.Ontology)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	xopts, release := s.documentOptions(r.Context(), ont, req.Ontology, nil)
	defer release()
	res, err := core.DiscoverContext(r.Context(), req.HTML, xopts)
	if err != nil {
		apiErr := pipelineError(err)
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	db, err := dbgen.Populate(ont, res)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"separator": res.Separator,
		"database":  db,
	})
}

func (s server) handleClassify(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	if req.HTML == "" || req.Ontology == "" {
		WriteError(w, http.StatusBadRequest, errors.New("html and ontology are required"))
		return
	}
	ont, err := ontology.Resolve(req.Ontology)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := classify.Classify(r.Context(), req.HTML, ont, s.cfg.Limits)
	if err != nil {
		apiErr := pipelineError(err)
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"kind":         res.Kind.String(),
		"estimate":     res.Estimate,
		"field_counts": res.FieldCounts,
		"fan_out":      res.FanOut,
		"candidates":   res.Candidates,
	})
}

func (s server) handleOntologies(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"builtin":    ontology.BuiltinNames(),
		"heuristics": certainty.AllHeuristics,
	})
}
