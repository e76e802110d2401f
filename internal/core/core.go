// Package core implements the paper's primary contribution: the
// Record-Boundary Discovery Algorithm of Section 5.3.
//
// Given a Web document containing multiple records, the algorithm
//
//  1. builds the tag tree (Appendix A),
//  2. locates the highest-fan-out subtree,
//  3. extracts the candidate separator tags (the 10% rule),
//  4. applies the five individual heuristics (OM, RP, SD, IT, HT), and
//  5. combines their rankings with Stanford certainty theory using the
//     calibrated certainty factors of Table 4, choosing the tag with the
//     highest compound certainty factor as the record separator.
//
// The package also implements the surrounding Record Extractor of Figure 1:
// splitting the document into record-sized chunks at the separator and
// cleaning markup, ready for downstream recognition.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"repro/internal/certainty"
	"repro/internal/faultinject"
	"repro/internal/heuristic"
	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
	"repro/internal/wire"
)

// Options configure discovery. The zero value gives the paper's published
// configuration: all five heuristics (ORSIH), the Table 4 certainty factors,
// and the 10% candidate threshold.
type Options struct {
	// Ontology enables the OM heuristic; nil disables it (OM then declines
	// and contributes nothing, as the paper specifies for documents without
	// enough record-identifying fields).
	Ontology *ontology.Ontology
	// Combination selects which heuristics participate; nil means ORSIH.
	Combination certainty.Combination
	// Factors is the rank→certainty table; nil means the paper's Table 4.
	Factors certainty.Table
	// CandidateThreshold is the irrelevant-tag cutoff; 0 means the paper's
	// 10%.
	CandidateThreshold float64
	// SeparatorList overrides IT's identifiable-separator list; nil means
	// the paper's list.
	SeparatorList []string
	// Trace, if non-nil, receives one span per pipeline stage (parse,
	// fan-out search, candidate extraction, recognition, each heuristic,
	// certainty combination) for this call.
	Trace *obs.Trace
	// Metrics, if non-nil, receives pipeline counters and stage-latency
	// histograms (see docs/OBSERVABILITY.md for the metric names).
	Metrics *obs.Registry
	// Limits bounds input resources (document bytes, tag-tree depth, node
	// count); zero-value fields are unlimited. Exceeding a limit fails the
	// call with the sentinel errors of tagtree.Limits / htmlparse.
	Limits tagtree.Limits
	// Faults is the test-only fault-injection hook set (see
	// internal/faultinject); nil — the production value — disables every
	// hook point at the cost of one nil check each.
	Faults *faultinject.Set
	// Templates, if non-nil, enables the learned-wrapper fast path: the
	// tree's structural fingerprint is looked up before the heuristics
	// run, a hit is served from the store, and a clean miss stores the
	// discovered answer for next time (see docs/WRAPPER.md).
	Templates *template.Store
	// TemplateSalt binds store keys to the non-document request options
	// that change the discovery answer; build it with template.Salt from
	// the same fields the caller would hash into a result-cache key.
	// Required whenever Templates is set and any of mode, ontology, or
	// separator list can vary between callers sharing the store.
	TemplateSalt string
	// Arena says who owns the parse's memory. Non-nil: tokens, tree nodes,
	// and event buffers come from this pooled arena (acquire with
	// tagtree.AcquireArena, release once the result has been copied out;
	// see docs/PERFORMANCE.md for the ownership rules). Nil: the document
	// is parsed on a fresh arena that never joins the pool, so the Result
	// stays valid for as long as the caller holds it. The algorithm and
	// its answer are the same either way.
	Arena *tagtree.Arena
}

// observed reports whether any observability sink is attached.
func (o Options) observed() bool { return o.Trace != nil || o.Metrics != nil }

// observeStage files one completed stage's latency with the metrics sink.
// Stage latencies use the microsecond-scale StageBuckets — whole stages
// finish far below the HTTP-oriented default bucket floor. Callers add the
// stage's trace span themselves, formatting its attributes only when
// o.Trace is set.
func (o Options) observeStage(name string, d time.Duration) {
	o.Metrics.Histogram("boundary_stage_duration_seconds",
		"Pipeline stage latency in seconds, by stage.", obs.StageBuckets,
		"stage", name).Observe(d.Seconds())
}

func (o Options) combination() certainty.Combination {
	if o.Combination == nil {
		return certainty.AllHeuristics
	}
	return o.Combination
}

func (o Options) factors() certainty.Table {
	if o.Factors == nil {
		return certainty.PaperTable
	}
	return o.Factors
}

func (o Options) threshold() float64 {
	if o.CandidateThreshold == 0 {
		return tagtree.DefaultCandidateThreshold
	}
	return o.CandidateThreshold
}

func (o Options) heuristics() []heuristic.Heuristic {
	var out []heuristic.Heuristic
	for _, name := range o.combination() {
		h := heuristic.ByName(name)
		if h == nil {
			continue
		}
		if it, ok := h.(heuristic.IT); ok && o.SeparatorList != nil {
			it.List = o.SeparatorList
			h = it
		}
		out = append(out, h)
	}
	return out
}

// Result is the outcome of record-boundary discovery on one document.
type Result struct {
	// Separator is the consensus record-separator tag (the highest
	// compound certainty factor; ties broken by tag name, with all tied
	// tags listed in TopTags).
	Separator string
	// TopTags lists every tag sharing the highest compound CF — the "X
	// tags" of the paper's sc(D) = Y/X success measure. Usually length 1.
	TopTags []string
	// Scores are all candidates with compound certainty factors, best
	// first.
	Scores []certainty.Score
	// Rankings holds each heuristic's individual answer; heuristics that
	// declined are absent.
	Rankings map[string]heuristic.Ranking
	// Candidates are the candidate tags with counts, by descending count.
	Candidates []tagtree.Candidate
	// Subtree is the highest-fan-out subtree's root node.
	Subtree *tagtree.Node
	// Tree is the document's tag tree.
	Tree *tagtree.Tree
	// Degraded reports that at least one heuristic failed (panicked) and
	// the compound certainty was computed from the survivors — the paper's
	// tolerance of missing evidence, applied to our own failures.
	Degraded bool
	// FailedHeuristics names the heuristics that panicked and were
	// isolated, in combination order; empty on a clean run.
	FailedHeuristics []string
	// HeuristicReasons explains, per heuristic name, why a heuristic
	// contributed no ranking: a decline reason in the paper's terms, or
	// "panicked: ..." for an isolated failure. Heuristics that answered are
	// absent.
	HeuristicReasons map[string]string
}

// ErrNoCandidates is returned for documents whose highest-fan-out subtree
// yields no candidate separator tags (e.g. an empty or tagless document).
// The paper assumes every input has multiple records and at least one
// record-separator tag; this error flags inputs violating that assumption.
var ErrNoCandidates = errors.New("core: no candidate separator tags")

// Discover runs the Record-Boundary Discovery Algorithm on an HTML document.
func Discover(doc string, opts Options) (*Result, error) {
	return DiscoverContext(context.Background(), doc, opts)
}

// DiscoverContext is Discover with cancellation: ctx is honored at
// checkpoints throughout the pipeline — the tag-tree build loop, the
// recognizer's chunk scan, and before each heuristic — so an HTTP request
// context that expires actually stops the work instead of merely abandoning
// its result. It returns ctx's error when canceled, and the sentinel limit
// errors of Options.Limits when the document exceeds a resource bound.
func DiscoverContext(ctx context.Context, doc string, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Faults.FireCtx(ctx, "core/parse"); err != nil {
		return nil, opts.failDocument(err)
	}
	tree, err := tagtree.ParseArenaContext(ctx, doc, opts.Limits, opts.Arena, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if opts.observed() {
		d := time.Since(start)
		opts.observeStage("parse", d)
		if opts.Trace != nil {
			opts.Trace.Add("parse", d, "mode", "html", "bytes", strconv.Itoa(len(doc)))
		}
	}
	return DiscoverTreeContext(ctx, tree, opts)
}

// DiscoverBytes runs discovery directly over document bytes without copying
// them into a string: the bytes are viewed zero-copy, so the caller must not
// mutate doc until the result (and anything aliasing it) is dead. Pair it
// with Options.Arena for the fully allocation-free hot path.
func DiscoverBytes(doc []byte, opts Options) (*Result, error) {
	return DiscoverBytesContext(context.Background(), doc, opts)
}

// DiscoverBytesContext is DiscoverBytes with cancellation.
func DiscoverBytesContext(ctx context.Context, doc []byte, opts Options) (*Result, error) {
	return DiscoverContext(ctx, bytesView(doc), opts)
}

// DiscoverXMLBytesContext is the XML counterpart of DiscoverBytesContext.
func DiscoverXMLBytesContext(ctx context.Context, doc []byte, opts Options) (*Result, error) {
	return DiscoverXMLContext(ctx, bytesView(doc), opts)
}

// DiscoverXML runs the algorithm on an XML document (the paper's footnote 1
// generalization to other DTDs): the tag tree is built with XML semantics —
// case-sensitive names, no void elements, no implied closings. Note that
// IT's default separator list is HTML-specific; for XML vocabularies
// callers usually supply Options.SeparatorList (or rely on the other
// heuristics, which are markup-agnostic).
func DiscoverXML(doc string, opts Options) (*Result, error) {
	return DiscoverXMLContext(context.Background(), doc, opts)
}

// DiscoverXMLContext is DiscoverXML with cancellation and resource limits,
// the XML counterpart of DiscoverContext.
func DiscoverXMLContext(ctx context.Context, doc string, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Faults.FireCtx(ctx, "core/parse"); err != nil {
		return nil, opts.failDocument(err)
	}
	tree, err := tagtree.ParseXMLArenaContext(ctx, doc, opts.Limits, opts.Arena, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if opts.observed() {
		d := time.Since(start)
		opts.observeStage("parse", d)
		if opts.Trace != nil {
			opts.Trace.Add("parse", d, "mode", "xml", "bytes", strconv.Itoa(len(doc)))
		}
	}
	return DiscoverTreeContext(ctx, tree, opts)
}

// DiscoverTree runs discovery over an already-parsed tag tree, for callers
// that need the tree for other purposes too.
func DiscoverTree(tree *tagtree.Tree, opts Options) (*Result, error) {
	return DiscoverTreeContext(context.Background(), tree, opts)
}

// DiscoverTreeContext is DiscoverTree with cancellation and heuristic fault
// isolation. Each heuristic runs behind recover(): one that panics becomes
// a recorded failure (Result.Degraded / Result.FailedHeuristics, the
// boundary_heuristic_panics_total metric, and a "panicked" trace attribute)
// and the compound certainty is computed from the survivors — mirroring the
// paper's Stanford-certainty tolerance of heuristics that decline.
func DiscoverTreeContext(ctx context.Context, tree *tagtree.Tree, opts Options) (*Result, error) {
	// Learned-wrapper fast path: a known template shape skips the
	// heuristics entirely. A miss (or a 1-in-N spot-check hit) falls
	// through to full discovery, whose answer is then stored; spotEntry
	// carries the stored answer a spot-check must re-verify against.
	var tmplKey template.Key
	var spotEntry *template.Entry
	if opts.Templates != nil {
		start := time.Now()
		fp, hfo := template.FingerprintTree(tree)
		tmplKey = template.MakeKey(fp, opts.TemplateSalt)
		if e, ok := opts.Templates.Lookup(tmplKey); ok {
			switch {
			case e.Subtree != hfo.Name:
				// Same hash, different fan-out winner: treat as
				// drift, never serve a mismatched wrapper.
				opts.Templates.ReportDrift(tmplKey, "subtree_mismatch")
			case opts.Templates.SpotCheck():
				spotEntry = e
			default:
				res := resultFromEntry(e, tree, hfo)
				if opts.observed() {
					d := time.Since(start)
					opts.observeStage("template/hit", d)
					if opts.Trace != nil {
						opts.Trace.Add("template/hit", d,
							"separator", res.Separator, "cf", formatCF(e.Certainty))
					}
				}
				opts.countDocument("ok")
				return res, nil
			}
		}
	}

	// The Data-Record Table (regular-expression recognition) is by far the
	// most expensive context ingredient; skip it when OM is not voting.
	ont := opts.Ontology
	if !opts.combination().Contains(certainty.OM) {
		ont = nil
	}
	var onStage heuristic.StageFunc
	if opts.observed() {
		onStage = func(s heuristic.Stage) {
			opts.observeStage(s.Name, s.Duration)
			if opts.Trace != nil {
				opts.Trace.Add(s.Name, s.Duration, s.Attrs()...)
			}
		}
	}
	hctx, err := heuristic.NewContextCtx(ctx, tree, opts.threshold(), ont, onStage, opts.Faults)
	if err != nil {
		return nil, opts.failDocument(err)
	}
	if len(hctx.Candidates) == 0 {
		opts.countDocument("no_candidates")
		return nil, ErrNoCandidates
	}

	res := &Result{
		Rankings:   make(map[string]heuristic.Ranking),
		Candidates: hctx.Candidates,
		Subtree:    hctx.Subtree,
		Tree:       tree,
	}

	// Section 3: a single candidate is the separator outright.
	if len(hctx.Candidates) == 1 {
		res.Separator = hctx.Candidates[0].Name
		res.TopTags = []string{res.Separator}
		res.Scores = []certainty.Score{{Tag: res.Separator, CF: 1}}
		opts.countDocument("single_candidate")
		opts.templateLearn(tmplKey, spotEntry, res)
		return res, nil
	}

	// The heuristics run in place, one after another: each takes a few
	// microseconds, less than spawning a goroutine for it would cost. Each
	// is isolated by recover(), so a panicking heuristic is contained in
	// its own answer. All observability is filed after the last one, in
	// combination order, so a canceled call records no heuristic spans.
	hs := opts.heuristics()
	answers := make([]heuristicAnswer, len(hs))
	for i, h := range hs {
		answers[i] = runHeuristic(ctx, h, hctx, opts.Faults)
	}
	if err := ctx.Err(); err != nil {
		return nil, opts.failDocument(err)
	}

	rankMaps := make(map[string]map[string]int)
	for i := range answers {
		a := &answers[i]
		switch {
		case a.panicked:
			a.reason = "panicked: " + a.panicMsg
		case !a.ok && a.reason == "":
			a.reason = heuristic.DeclineReason(a.name, hctx)
			if a.reason == "" {
				a.reason = "declined"
			}
		}
		if opts.observed() {
			opts.observeHeuristic(*a)
		}
		if a.panicked {
			res.Degraded = true
			res.FailedHeuristics = append(res.FailedHeuristics, a.name)
		}
		if !a.ok || a.panicked {
			if res.HeuristicReasons == nil {
				res.HeuristicReasons = make(map[string]string)
			}
			res.HeuristicReasons[a.name] = a.reason
			continue
		}
		res.Rankings[a.name] = a.r
		rankMaps[a.name] = a.r.ToMap()
	}

	if err := opts.Faults.FireCtx(ctx, "core/combine"); err != nil {
		return nil, opts.failDocument(err)
	}
	tags := make([]string, len(hctx.Candidates))
	for i, c := range hctx.Candidates {
		tags[i] = c.Name
	}
	start := time.Now()
	res.Scores = certainty.Compound(opts.factors(), opts.combination(), rankMaps, tags)
	res.Separator = res.Scores[0].Tag
	for _, s := range res.Scores {
		if s.CF == res.Scores[0].CF {
			res.TopTags = append(res.TopTags, s.Tag)
		}
	}
	if opts.observed() {
		d := time.Since(start)
		opts.observeStage("combine", d)
		if opts.Trace != nil {
			opts.Trace.Add("combine", d,
				"separator", res.Separator, "cf", formatCF(res.Scores[0].CF))
		}
	}
	if res.Degraded {
		opts.Trace.SetStatus(obs.StatusDegraded,
			"failed heuristics: "+strings.Join(res.FailedHeuristics, ","))
		opts.countDocument("degraded")
	} else {
		opts.countDocument("ok")
	}
	opts.templateLearn(tmplKey, spotEntry, res)
	return res, nil
}

// templateLearn hands a freshly-discovered answer to the wrapper store,
// which stores it and settles a pending spot-check (template.Store.Learn).
func (o Options) templateLearn(key template.Key, spot *template.Entry, res *Result) {
	if o.Templates != nil {
		o.Templates.Learn(spot, NewTemplateEntry(key, res))
	}
}

// Answer is the result's wire form — the one conversion from a Result to
// the answer every surface encodes (HTTP bodies, bulk lines, wrapper-store
// entries). Rankings is never nil.
func (r *Result) Answer() wire.Answer {
	a := wire.Answer{
		Separator:        r.Separator,
		TopTags:          r.TopTags,
		Scores:           make([]wire.Score, len(r.Scores)),
		Rankings:         make(map[string][]wire.Rank, len(r.Rankings)),
		Candidates:       make([]wire.Candidate, len(r.Candidates)),
		Subtree:          htmlparse.CanonicalName(r.Subtree.Name),
		Degraded:         r.Degraded,
		FailedHeuristics: r.FailedHeuristics,
	}
	for i, s := range r.Scores {
		a.Scores[i] = wire.Score{Tag: s.Tag, CF: s.CF}
	}
	for name, ranking := range r.Rankings {
		rows := make([]wire.Rank, len(ranking))
		for i, e := range ranking {
			rows[i] = wire.Rank{Tag: e.Tag, Rank: e.Rank}
		}
		a.Rankings[name] = rows
	}
	for i, c := range r.Candidates {
		a.Candidates[i] = wire.Candidate{Tag: c.Name, Count: c.Count}
	}
	return a
}

// NewTemplateEntry snapshots a discovery result as a wrapper-store entry
// under key. The entry holds every field needed to rebuild a Result (and
// hence a wire response) byte-identical to res on any same-shaped tree.
func NewTemplateEntry(key template.Key, res *Result) *template.Entry {
	return &template.Entry{
		Key:       key.String(),
		Answer:    res.Answer(),
		Reasons:   maps.Clone(res.HeuristicReasons),
		Certainty: res.Scores[0].CF,
	}
}

// resultFromEntry rebuilds a Result from a stored wrapper entry. tree and
// hfo are the current document's — real nodes, so downstream record
// splitting works exactly as after a full discovery. The per-heuristic
// ranking Scores are not stored (no wire surface carries them), so rebuilt
// Rankings have Score zero.
func resultFromEntry(e *template.Entry, tree *tagtree.Tree, hfo *tagtree.Node) *Result {
	res := &Result{
		Separator:        e.Separator,
		TopTags:          e.TopTags,
		Scores:           make([]certainty.Score, len(e.Scores)),
		Rankings:         make(map[string]heuristic.Ranking, len(e.Rankings)),
		Candidates:       make([]tagtree.Candidate, len(e.Candidates)),
		Subtree:          hfo,
		Tree:             tree,
		HeuristicReasons: e.Reasons,
	}
	for i, s := range e.Scores {
		res.Scores[i] = certainty.Score{Tag: s.Tag, CF: s.CF}
	}
	for name, rows := range e.Rankings {
		r := make(heuristic.Ranking, len(rows))
		for i, row := range rows {
			r[i] = heuristic.Ranked{Tag: row.Tag, Rank: row.Rank}
		}
		res.Rankings[name] = r
	}
	for i, c := range e.Candidates {
		res.Candidates[i] = tagtree.Candidate{Name: c.Tag, Count: c.Count}
	}
	return res
}

// runHeuristic runs one heuristic behind recover(): a panic becomes a
// recorded failure in the heuristic's own answer. A canceled context turns
// the heuristic into a decline; the caller then fails the whole call.
func runHeuristic(ctx context.Context, h heuristic.Heuristic, hctx *heuristic.Context, faults *faultinject.Set) (a heuristicAnswer) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			a = heuristicAnswer{name: h.Name(), d: time.Since(start),
				panicked: true, panicMsg: fmt.Sprint(r)}
		}
	}()
	if ctx.Err() != nil {
		return heuristicAnswer{name: h.Name()}
	}
	if err := faults.FireCtx(ctx, "core/heuristic/"+h.Name()); err != nil {
		return heuristicAnswer{name: h.Name(), d: time.Since(start), reason: "fault injected"}
	}
	r, ok := h.Rank(hctx)
	return heuristicAnswer{name: h.Name(), d: time.Since(start), r: r, ok: ok}
}

// heuristicAnswer is one heuristic's result, held until every heuristic has
// run. panicked marks an isolated heuristic panic (panicMsg carries the
// value).
type heuristicAnswer struct {
	name     string
	d        time.Duration
	r        heuristic.Ranking
	ok       bool
	panicked bool
	panicMsg string
	// reason says why the heuristic contributed nothing (decline reason,
	// injected fault, panic); "" when it answered.
	reason string
}

// failDocument counts a failed document under the outcome its error class
// maps to (canceled, limit, or error), escalates the trace's status, and
// returns the error unchanged.
func (o Options) failDocument(err error) error {
	o.Trace.SetStatus(obs.StatusError, err.Error())
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		o.countDocument("canceled")
	case errors.Is(err, htmlparse.ErrTooLarge),
		errors.Is(err, tagtree.ErrTooDeep),
		errors.Is(err, tagtree.ErrTooManyNodes):
		o.countDocument("limit")
	default:
		o.countDocument("error")
	}
	return err
}

// countDocument increments the per-outcome document counter.
func (o Options) countDocument(outcome string) {
	o.Metrics.Counter("boundary_documents_total",
		"Documents run through boundary discovery, by outcome.",
		"outcome", outcome).Inc()
}

// heuristicStages maps each heuristic to its trace span and stage-metric
// name, heuristic/<name>, built once rather than concatenated per document.
var heuristicStages = func() map[string]string {
	m := make(map[string]string, len(certainty.AllHeuristics))
	for _, name := range certainty.AllHeuristics {
		m[name] = "heuristic/" + name
	}
	return m
}()

// formatCF renders a certainty factor for a span attribute, as "%.4f" does.
func formatCF(cf float64) string {
	var buf [24]byte
	return string(strconv.AppendFloat(buf[:0], cf, 'f', 4, 64))
}

// observeHeuristic files one heuristic's answer (decline, or isolated
// panic) with both sinks: a trace span named heuristic/<name>, a
// stage-latency observation, and run/decline/panic counters.
func (o Options) observeHeuristic(a heuristicAnswer) {
	stage := heuristicStages[a.name]
	o.observeStage(stage, a.d)
	switch {
	case o.Trace == nil:
	case a.panicked:
		o.Trace.Add(stage, a.d, "panicked", "true", "panic", a.panicMsg)
	case a.ok && len(a.r) > 0:
		o.Trace.Add(stage, a.d, "declined", "false", "rank1", a.r[0].Tag)
	default:
		o.Trace.Add(stage, a.d, "declined", "true", "reason", a.reason)
	}
	o.Metrics.Histogram("boundary_heuristic_duration_seconds",
		"One heuristic's ranking latency in seconds, by heuristic.",
		obs.StageBuckets, "heuristic", a.name).Observe(a.d.Seconds())
	o.Metrics.Counter("boundary_heuristic_runs_total",
		"Heuristic invocations, by heuristic.", "heuristic", a.name).Inc()
	switch {
	case a.panicked:
		o.Metrics.Counter("boundary_heuristic_panics_total",
			"Heuristic invocations that panicked and were isolated, by heuristic.",
			"heuristic", a.name).Inc()
	case !a.ok:
		o.Metrics.Counter("boundary_heuristic_declines_total",
			"Heuristic invocations that declined to answer, by heuristic.",
			"heuristic", a.name).Inc()
	}
}

// Record is one record-sized chunk of a document.
type Record struct {
	// HTML is the raw markup of the chunk.
	HTML string
	// Text is the chunk's plain text with markup removed and whitespace
	// collapsed — the "cleaned" unstructured record document of Figure 1.
	Text string
	// Start and End are the chunk's byte offsets in the original document.
	Start, End int
}

// Split partitions the document at the separator-tag occurrences inside the
// highest-fan-out subtree, returning one Record per chunk between
// consecutive separators. Content before the first separator and after the
// last one (within the subtree) forms leading/trailing chunks; chunks with
// no plain text (adjacent separators, a trailing separator at the subtree's
// edge) are dropped.
//
// Record.Text comes from the already-built tree's event stream, so the whole
// split is one linear pass with no re-tokenization — and the text honors the
// semantics the tree was parsed with (a record split from a DiscoverXML
// result is never re-read with HTML's void elements or raw-text rules).
func Split(doc string, res *Result) []Record {
	positions := tagtree.Occurrences(res.Tree, res.Subtree, res.Separator)
	if len(positions) == 0 {
		return nil
	}
	subStart, subEnd := res.Subtree.StartPos, res.Subtree.EndPos
	bounds := append([]int{subStart}, positions...)
	bounds = append(bounds, subEnd)

	// One merge walk: text events and bounds are both in ascending document
	// order, and text runs never straddle a bound (every bound is a
	// start-tag position, which terminates any text run before it).
	events := res.Tree.SubtreeEvents(res.Subtree)
	ei := 0
	var out []Record
	var parts []string
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi || lo < 0 || hi > len(doc) {
			continue
		}
		for ei < len(events) && events[ei].Pos < lo {
			ei++
		}
		parts = parts[:0]
		for ; ei < len(events) && events[ei].Pos < hi; ei++ {
			if events[ei].Kind != tagtree.EventText {
				continue
			}
			if s := tagtree.CollapseSpace(events[ei].Text); s != "" {
				parts = append(parts, s)
			}
		}
		if len(parts) == 0 {
			continue
		}
		out = append(out, Record{
			HTML:  doc[lo:hi],
			Text:  strings.Join(parts, " "),
			Start: lo,
			End:   hi,
		})
	}
	return out
}

// Boundaries returns the record boundaries Split produces as byte spans —
// the machine-comparable form the evaluation harness scores extractors on
// (see internal/eval and docs/EVALUATION.md).
func (r *Result) Boundaries(doc string) []tagtree.Span {
	recs := Split(doc, r)
	spans := make([]tagtree.Span, len(recs))
	for i, rec := range recs {
		spans[i] = tagtree.Span{Start: rec.Start, End: rec.End}
	}
	return spans
}

// SplitAt partitions a document at a known separator tag without running
// discovery: parse, locate the highest-fan-out subtree, split. This is the
// oracle path for callers that already know a page's wrapper — the
// evaluation harness uses it to materialize ground-truth boundaries from a
// corpus document's planted separator, and it is the cheapest way to
// re-split a page whose separator was learned out of band. It returns no
// records when the separator never occurs inside the subtree.
func SplitAt(doc, separator string, limits tagtree.Limits) ([]Record, error) {
	tree, err := tagtree.ParseContext(context.Background(), doc, limits)
	if err != nil {
		return nil, err
	}
	res := &Result{Separator: separator, Subtree: tree.HighestFanOut(), Tree: tree}
	return Split(doc, res), nil
}

// Explain renders a human-readable report of a discovery result: the chosen
// separator, each heuristic's ranking, and the compound scores — the
// worked-example format of §5.3.
func Explain(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "highest-fan-out subtree: <%s> (fan-out %d)\n", res.Subtree.Name, res.Subtree.FanOut())
	b.WriteString("candidates:")
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, " %s(%d)", c.Name, c.Count)
	}
	b.WriteByte('\n')
	for _, name := range certainty.AllHeuristics {
		r, ok := res.Rankings[name]
		if !ok {
			fmt.Fprintf(&b, "%s: (no answer)\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s: [", name)
		for i, e := range r {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%s, %d)", e.Tag, e.Rank)
		}
		b.WriteString("]\n")
	}
	b.WriteString("compound: [")
	for i, s := range res.Scores {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s, %.2f%%)", s.Tag, s.CF*100)
	}
	b.WriteString("]\n")
	fmt.Fprintf(&b, "separator: <%s>\n", res.Separator)
	return b.String()
}
