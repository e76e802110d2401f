package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/certainty"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristic"
	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pipeline"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// The traced run times the public call of every layer, with one client, on
// the same inputs the untraced run serves. A span is recorded around each
// call; a lower layer is timed as its own call on the same document and
// filed as a child of the layer that runs it in the served path, so a
// layer's self time is its span's duration minus its children's.

// span is one timed call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int32) float64 {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return float64(s.End-s.Start) / 1e3
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var memStats runtime.MemStats

func mallocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// heuristicSpans are the span names of heuristic.All(), in its order.
var heuristicSpans = func() []string {
	var out []string
	for _, h := range heuristic.All() {
		out = append(out, "heuristic."+h.Name())
	}
	return out
}()

// docSample is everything the walk measures on one document (times in µs).
type docSample struct {
	miss                       bool
	serve, bare, core          float64
	parse, tokenize, context   float64
	recognize, combine, finger float64
	rank                       []float64
	respBytes, events, bytes   float64
	declines, entries          float64
	onPathRecognize            bool
	recognized                 bool
}

func (s *docSample) coreSelf() float64 {
	v := s.core - s.parse - s.context - s.combine
	if s.onPathRecognize {
		v -= s.recognize
	}
	for _, r := range s.rank {
		v -= r
	}
	return v
}

func (s *docSample) httpSelf() float64 {
	if s.miss {
		return s.serve - s.core
	}
	return s.serve
}

// walkResult is the traced walk's samples, the checks of its answers and
// the deployed handler's cache counters over the walk.
type walkResult struct {
	samples                        []docSample
	v                              verdict
	hits, misses, evictions, dedup float64
}

// offPathRecognize caps how many documents of a workload without an
// ontology get the off-path recognizer timing (about 2 ms each).
const offPathRecognize = 256

// tracedWalk times the walk in three passes over its documents: the two
// handlers, then core followed by its stages on the same document, then
// the off-path recognizer. Keeping the layers apart lets each call run in
// about the steady state it has in the untraced run, instead of right after
// an unrelated layer evicted its caches.
// Spans of one document share its request number, and a lower layer's span
// names as parent the span of the layer that runs it in the served path.
func tracedWalk(w *workload, walk []int32, tr *tracer) (walkResult, error) {
	var out walkResult
	ss := make([]docSample, len(walk))
	docBytes := make([][]byte, len(walk))
	for n, i := range walk {
		d := w.docs[i]
		docBytes[n] = []byte(d.html)
		ss[n] = docSample{bytes: float64(len(d.html)), onPathRecognize: d.ontology != "",
			rank: make([]float64, len(heuristicSpans))}
	}

	// The deployed handler, and the same handler without observability:
	// the two serve each document back to back, taking turns at going
	// first, so drift of the host hits both alike. The deployed cache's own
	// miss counter tells whether core ran for a request.
	dep, depReg, err := newDeployed()
	if err != nil {
		return out, err
	}
	defer dep.Close()
	bare, err := newBare()
	if err != nil {
		return out, err
	}
	defer bare.Close()
	misses := depReg.Counter("boundary_cache_misses_total",
		"Discovery requests that missed the result cache.")
	vDep, vBare := newVerifier(w), newVerifier(w)
	prewarm(dep, w, vDep)
	prewarm(bare, w, vBare)
	rec := newRecorder()
	serveSpan := make([]int32, len(walk))
	for n, i := range walk {
		s, req := &ss[n], int32(n)
		for side := 0; side < 2; side++ {
			if (side+n)%2 == 0 {
				before := misses.Value()
				sp := tr.begin("httpapi.serve", -1, req)
				status, body := rec.serve(dep, w.docs[i])
				s.serve = tr.end(sp)
				serveSpan[n] = sp
				s.respBytes = float64(len(body))
				vDep.check(i, status, body)
				s.miss = misses.Value() > before
				continue
			}
			bp := tr.begin("httpapi.bare", -1, req)
			status, body := rec.serve(bare, w.docs[i])
			s.bare = tr.end(bp)
			vBare.check(i, status, body)
		}
	}

	// core, with the workload's options and observability off, and then
	// its stages on the same document, in core's order.
	coreArena, parseArena := tagtree.AcquireArena(), tagtree.AcquireArena()
	defer coreArena.Release()
	defer parseArena.Release()
	tok := htmlparse.NewArena()
	bg := context.Background()
	for n, i := range walk {
		d, s, req := w.docs[i], &ss[n], int32(n)
		parent := int32(-1)
		if s.miss {
			parent = serveSpan[n]
		}
		cp := tr.begin("core.discover", parent, req)
		res, err := core.DiscoverBytes(docBytes[n], core.Options{Ontology: ontologyOf(d), Arena: coreArena})
		s.core = tr.end(cp)
		if err != nil {
			return out, fmt.Errorf("core.DiscoverBytes on document %d: %w", i, err)
		}
		sep := res.Separator

		pp := tr.begin("tagtree.parse", cp, req)
		tree, err := tagtree.ParseArenaContext(bg, d.html, tagtree.Limits{}, parseArena, nil)
		s.parse = tr.end(pp)
		if err != nil {
			return out, err
		}
		s.events = float64(len(tree.Events))
		tp := tr.begin("htmlparse.tokenize", pp, req)
		tok.TokenizeHTML(d.html)
		s.tokenize = tr.end(tp)

		xp := tr.begin("heuristic.context", cp, req)
		hctx, err := heuristic.NewContextCtx(bg, tree, tagtree.DefaultCandidateThreshold, nil, nil, nil)
		s.context = tr.end(xp)
		if err != nil {
			return out, err
		}
		if s.onPathRecognize {
			ont := ontologyOf(d)
			rp := tr.begin("recognizer.recognize", cp, req)
			table, err := recognizer.RecognizeContext(bg, ont, tree, hctx.Subtree, nil)
			s.recognize = tr.end(rp)
			if err != nil {
				return out, err
			}
			s.recognized, s.entries = true, float64(table.Len())
			hctx.Ontology, hctx.Table = ont, table
		}

		rankMaps := make(map[string]map[string]int)
		for k, h := range heuristic.All() {
			hp := tr.begin(heuristicSpans[k], cp, req)
			r, ok := h.Rank(hctx)
			s.rank[k] = tr.end(hp)
			if ok {
				rankMaps[h.Name()] = r.ToMap()
			} else {
				s.declines++
			}
		}
		tags := make([]string, len(hctx.Candidates))
		for k, c := range hctx.Candidates {
			tags[k] = c.Name
		}
		cb := tr.begin("certainty.combine", cp, req)
		scores := certainty.Compound(certainty.PaperTable, certainty.AllHeuristics, rankMaps, tags)
		s.combine = tr.end(cb)
		if len(tags) > 1 && scores[0].Tag != sep {
			return out, fmt.Errorf("document %d: stage-by-stage separator %q differs from core's %q",
				i, scores[0].Tag, sep)
		}

		fp := tr.begin("template.fingerprint", -1, req)
		template.FingerprintTree(tree)
		s.finger = tr.end(fp)
	}

	// Without an ontology the recognizer is off the served path; it is
	// still timed, on the same documents with their domain's ontology.
	for n, i := range walk {
		s := &ss[n]
		if s.recognized || n >= offPathRecognize {
			continue
		}
		d := w.docs[i]
		tree, err := tagtree.ParseArenaContext(bg, d.html, tagtree.Limits{}, parseArena, nil)
		if err != nil {
			return out, err
		}
		rp := tr.begin("recognizer.recognize", -1, int32(n))
		table, err := recognizer.RecognizeContext(bg, d.domain.Ontology(), tree, tree.HighestFanOut(), nil)
		s.recognize = tr.end(rp)
		if err != nil {
			return out, err
		}
		s.recognized, s.entries = true, float64(table.Len())
	}

	out.hits = counterValue(depReg, "boundary_cache_hits_total")
	out.misses = counterValue(depReg, "boundary_cache_misses_total")
	out.evictions = counterValue(depReg, "boundary_cache_evictions_total")
	out.dedup = counterValue(depReg, "boundary_cache_inflight_dedup_total")
	a, b := vDep.finish(), vBare.finish()
	// The bare handler's answers are checked too, but only the deployed
	// handler's count towards correct_frac.
	out.samples = ss
	out.v = verdict{
		attempted: a.attempted + b.attempted,
		failed:    a.failed + b.failed,
		answered:  a.answered,
		truthOK:   a.truthOK,
	}
	return out, nil
}

// allocSample is one document's allocation counts (objects).
type allocSample struct {
	miss              bool
	serve, bare, core float64
}

// allocPrefix is how many walk positions the allocation pass replays.
const allocPrefix = 128

// allocWalk replays the start of the walk on fresh systems and counts the
// objects each call allocates. It is a pass of its own because reading the
// allocation count stops the world and would disturb the timed spans.
func allocWalk(w *workload, walk []int32) ([]allocSample, verdict, error) {
	dep, depReg, err := newDeployed()
	if err != nil {
		return nil, verdict{}, err
	}
	defer dep.Close()
	bare, err := newBare()
	if err != nil {
		return nil, verdict{}, err
	}
	defer bare.Close()
	misses := depReg.Counter("boundary_cache_misses_total",
		"Discovery requests that missed the result cache.")
	vDep, vBare := newVerifier(w), newVerifier(w)
	prewarm(dep, w, vDep)
	prewarm(bare, w, vBare)
	rec := newRecorder()
	arena := tagtree.AcquireArena()
	defer arena.Release()
	if len(walk) > allocPrefix {
		walk = walk[:allocPrefix]
	}
	var out []allocSample
	for _, i := range walk {
		d := w.docs[i]
		docBytes := []byte(d.html)
		var s allocSample
		before := misses.Value()
		m0 := mallocs()
		status, body := rec.serve(dep, d)
		s.serve = float64(mallocs() - m0)
		vDep.check(i, status, body)
		s.miss = misses.Value() > before
		m0 = mallocs()
		status, body = rec.serve(bare, d)
		s.bare = float64(mallocs() - m0)
		vBare.check(i, status, body)
		m0 = mallocs()
		_, err := core.DiscoverBytes(docBytes, core.Options{Ontology: ontologyOf(d), Arena: arena})
		s.core = float64(mallocs() - m0)
		if err != nil {
			return nil, verdict{}, err
		}
		out = append(out, s)
	}
	a, b := vDep.finish(), vBare.finish()
	return out, verdict{attempted: a.attempted + b.attempted, failed: a.failed + b.failed}, nil
}

// counterValue sums every series of a counter family in the registry's
// Prometheus exposition.
func counterValue(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// linearDoc builds the BenchmarkLinearScaling page: obituary records
// between <hr> separators, 8×mult records.
func linearDoc(mult, index int) string {
	site := &corpus.Site{
		Name:   fmt.Sprintf("scale-%dx", mult),
		Domain: corpus.Obituaries,
		Profile: corpus.Profile{
			Container: []string{"div"},
			Layout:    corpus.Delimited,
			Separator: "hr",
			Records:   [2]int{8 * mult, 8 * mult},
			BoldRuns:  [2]int{2, 3},
			Breaks:    [2]int{1, 2},
			BaseSize:  300,
		},
	}
	return site.Generate(index).HTML
}

// linearity times parse, context and recognize at 1× and 16× size and
// reports ns per byte for each, so the O(n) claim can be read per stage.
func linearity(seed int64, tr *tracer, m metrics) {
	ont := ontology.Builtin("obituary")
	arena := tagtree.AcquireArena()
	defer arena.Release()
	bg := context.Background()
	const reps = 7
	for _, mult := range []int{1, 16} {
		html := linearDoc(mult, int(seed%1000))
		n := float64(len(html))
		var parse, ctx, rec []float64
		for r := 0; r < reps; r++ {
			root := tr.begin(fmt.Sprintf("linear-%dx", mult), -1, -1)
			p := tr.begin("tagtree.parse", root, -1)
			tree, _ := tagtree.ParseArenaContext(bg, html, tagtree.Limits{}, arena, nil)
			parse = append(parse, tr.end(p))
			x := tr.begin("heuristic.context", root, -1)
			hctx, _ := heuristic.NewContextCtx(bg, tree, tagtree.DefaultCandidateThreshold, nil, nil, nil)
			ctx = append(ctx, tr.end(x))
			rs := tr.begin("recognizer.recognize", root, -1)
			_, _ = recognizer.RecognizeContext(bg, ont, tree, hctx.Subtree, nil)
			rec = append(rec, tr.end(rs))
			tr.end(root)
		}
		suffix := fmt.Sprintf("_%dx", mult)
		m.set("tagtree.parse_ns_per_byte"+suffix, median(parse)*1e3/n, "ns/B")
		m.set("heuristic.context_ns_per_byte"+suffix, median(ctx)*1e3/n, "ns/B")
		m.set("recognizer.ns_per_byte"+suffix, median(rec)*1e3/n, "ns/B")
	}
}

// Walk sizes of the traced run: positions of the request order (serving)
// or pages re-crawled pass after pass (bulk).
var walkSize = map[string]int{
	serveCold:     1024,
	serveOntology: 256,
	serveHot:      1024,
	bulkRecrawl:   128,
}

// walkPositions lists the documents the traced run walks, split into the
// runs the pipeline gets: one for a serving stream, one per bulk pass.
func walkPositions(w *workload) [][]int32 {
	n := walkSize[w.name]
	if !w.bulk() {
		walk := make([]int32, n)
		for p := range walk {
			walk[p] = w.docAt(p)
		}
		return [][]int32{walk}
	}
	var runs [][]int32
	for _, pass := range w.passes {
		var run []int32
		for _, i := range pass {
			if int(i)%bulkPages < n {
				run = append(run, i)
			}
		}
		runs = append(runs, run)
	}
	return runs
}

// runtimeCounters are the runtime totals the untraced window diffs.
type runtimeCounters struct {
	alloc, gcs, pauseNs float64
}

func readRuntime() runtimeCounters {
	runtime.ReadMemStats(&memStats)
	return runtimeCounters{float64(memStats.TotalAlloc), float64(memStats.NumGC), float64(memStats.PauseTotalNs)}
}

// untracedSingle is the traced run's baseline: the deployed system, one
// client (or one bulk worker), no spans. It yields the runtime deltas per
// document, the per-document time the tracing overhead is measured
// against, and (serving) the cache counters per request.
func untracedSingle(w *workload, dur time.Duration, tmp string, m metrics) (perDocUs float64, v verdict, err error) {
	var before, after runtimeCounters
	var docs int
	if w.bulk() {
		sys, err := openBulk(journalPath(tmp, "untraced"), 1, true)
		if err != nil {
			return 0, v, err
		}
		defer sys.close()
		inputs := bulkInputs(w)
		warm := newCheckSink(w, nil)
		read, err := sys.bulkLoop(w, inputs, warm, time.Now().Add(warmupFor(dur)))
		v.addSink(warm, read)
		if err != nil {
			return 0, v, err
		}
		sink := newCheckSink(w, nil)
		before = readRuntime()
		start := time.Now()
		read, err = sys.bulkLoop(w, inputs, sink, start.Add(dur))
		elapsed := time.Since(start)
		after = readRuntime()
		v.addSink(sink, read)
		if err != nil {
			return 0, v, err
		}
		if err := sys.close(); err != nil {
			return 0, v, err
		}
		docs = sink.written
		perDocUs = elapsed.Seconds() * 1e6 / float64(docs)
	} else {
		srv, reg, err := newDeployed()
		if err != nil {
			return 0, v, err
		}
		defer srv.Close()
		vr := newVerifier(w)
		var pos atomic.Int64
		prewarm(srv, w, vr)
		closedLoop(srv, w, vr, &pos, 1, warmupFor(dur))
		hits0 := counterValue(reg, "boundary_cache_hits_total")
		miss0 := counterValue(reg, "boundary_cache_misses_total")
		evict0 := counterValue(reg, "boundary_cache_evictions_total")
		dedup0 := counterValue(reg, "boundary_cache_inflight_dedup_total")
		before = readRuntime()
		res := closedLoop(srv, w, vr, &pos, 1, dur)
		after = readRuntime()
		docs = len(res.lat)
		hits := counterValue(reg, "boundary_cache_hits_total") - hits0
		miss := counterValue(reg, "boundary_cache_misses_total") - miss0
		m.set("httpapi.cache_hit_ratio", hits/(hits+miss), "ratio")
		m.set("httpapi.cache_evictions", (counterValue(reg, "boundary_cache_evictions_total")-evict0)/float64(docs), "1/req")
		m.set("httpapi.dedup_waits", (counterValue(reg, "boundary_cache_inflight_dedup_total")-dedup0)/float64(docs), "1/req")
		perDocUs = median(res.lat) * 1e3
		v = vr.finish()
	}
	n := float64(docs)
	m.set("runtime.alloc_bytes_per_doc", (after.alloc-before.alloc)/n, "B")
	m.set("runtime.gc_cycles", (after.gcs-before.gcs)*1000/n, "count/kdoc")
	m.set("runtime.gc_pause_ms", (after.pauseNs-before.pauseNs)/1e6*1000/n, "ms/kdoc")
	return perDocUs, v, nil
}

// pipelineChunk is how many documents the engine-versus-core comparison
// takes at a time before switching sides.
const pipelineChunk = 16

// pipelineLayer runs the walk through the bulk engine with one worker as
// deployed (metrics and wrapper store), pass after pass. Then it separates
// the engine's own cost per document from core's: chunks of the walk go
// through the engine without the store and, alternately, straight through
// core called the way the engine calls it (string document, arena,
// metrics), so drift of the host hits both sides alike.
func pipelineLayer(w *workload, runs [][]int32, tmp string, tr *tracer, m metrics) (deployedUs float64, v verdict, err error) {
	docs := 0
	var walk []int32
	for _, r := range runs {
		docs += len(r)
		walk = append(walk, r...)
	}
	perDoc := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(docs) }

	sys, err := openBulk(journalPath(tmp, "pipeline"), 1, true)
	if err != nil {
		return 0, v, err
	}
	defer sys.close()
	sink := newCheckSink(w, nil)
	var st pipeline.Stats
	var wall time.Duration
	for _, r := range runs {
		in := ndjson(w, r)
		sp := tr.begin("pipeline.run", -1, -1)
		t0 := time.Now()
		s, err := sys.runPass(in, r, sink)
		wall += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return 0, v, err
		}
		st.Read += s.Read
		st.Retries += s.Retries
	}
	v.addSink(sink, st.Read)
	ts := sys.store.Stats()
	m.set("template.hit_ratio", ts.Hits/(ts.Hits+ts.Misses), "ratio")
	m.set("template.stores", ts.Stores, "count")
	m.set("template.spot_checks", counterValue(sys.reg, "boundary_template_spot_checks_total"), "count")
	m.set("pipeline.out_bytes_per_doc", float64(sink.out.n.Load())/float64(docs), "B")
	m.set("pipeline.retries", float64(st.Retries), "count")
	deployedUs = perDoc(wall)
	m.set("pipeline.doc_us", deployedUs, "us")
	if err := sys.close(); err != nil {
		return 0, v, err
	}

	plain, err := openBulk("", 1, false)
	if err != nil {
		return 0, v, err
	}
	plainSink := newCheckSink(w, nil)
	reg := obs.NewRegistry()
	arena := tagtree.AcquireArena()
	defer arena.Release()
	var engineWall, coreWall time.Duration
	plainRead := 0
	for c := 0; c*pipelineChunk < len(walk); c++ {
		chunk := walk[c*pipelineChunk : min((c+1)*pipelineChunk, len(walk))]
		in := ndjson(w, chunk)
		for side := 0; side < 2; side++ {
			if (side+c)%2 == 0 {
				sp := tr.begin("pipeline.run", -1, -1)
				t0 := time.Now()
				s, err := plain.runPass(in, chunk, plainSink)
				engineWall += time.Since(t0)
				tr.end(sp)
				plainRead += s.Read
				if err != nil {
					return 0, v, err
				}
				continue
			}
			sp := tr.begin("core.discover", -1, -1)
			t0 := time.Now()
			for _, i := range chunk {
				d := w.docs[i]
				opts := core.Options{Ontology: ontologyOf(d), Metrics: reg, Arena: arena}
				if _, err := core.DiscoverContext(context.Background(), d.html, opts); err != nil {
					return 0, v, err
				}
			}
			coreWall += time.Since(t0)
			tr.end(sp)
		}
	}
	v.addSink(plainSink, plainRead)
	m.set("pipeline.self_us", perDoc(engineWall)-perDoc(coreWall), "us")
	return deployedUs, v, nil
}

// runTraced is the --trace 1 run: the untraced single-client baseline, the
// traced walk, the pipeline runs and the linearity check.
func runTraced(w *workload, seed int64, dur time.Duration, tmp string, out io.Writer) (metrics, verdict, []int32, error) {
	m := metrics{}
	var v verdict
	untracedUs, uv, err := untracedSingle(w, dur/4, tmp, m)
	if err != nil {
		return nil, v, nil, err
	}
	v.add(uv)

	tr := &tracer{t0: time.Now()}
	runs := walkPositions(w)
	var walk []int32
	for _, r := range runs {
		walk = append(walk, r...)
	}
	wr, err := tracedWalk(w, walk, tr)
	if err != nil {
		return nil, v, nil, err
	}
	v.add(wr.v)
	ss := wr.samples
	if len(ss) == 0 {
		return nil, v, nil, fmt.Errorf("traced walk measured no documents")
	}
	col := func(f func(s *docSample) float64) []float64 {
		out := make([]float64, len(ss))
		for i := range ss {
			out[i] = f(&ss[i])
		}
		return out
	}
	med := func(f func(s *docSample) float64) float64 { return median(col(f)) }

	if w.bulk() {
		// No HTTP layer in bulk: the cache counters come from the walk's
		// deployed handler instead of the untraced window.
		reqs := wr.hits + wr.misses
		m.set("httpapi.cache_hit_ratio", wr.hits/reqs, "ratio")
		m.set("httpapi.cache_evictions", wr.evictions/reqs, "1/req")
		m.set("httpapi.dedup_waits", wr.dedup/reqs, "1/req")
	}
	m.set("httpapi.self_us", med((*docSample).httpSelf), "us")
	m.set("httpapi.resp_bytes", med(func(s *docSample) float64 { return s.respBytes }), "B")
	m.set("obs.self_us", med(func(s *docSample) float64 { return s.serve - s.bare }), "us")
	m.set("core.discover_us", med(func(s *docSample) float64 { return s.core }), "us")
	m.set("core.self_us", med((*docSample).coreSelf), "us")
	m.set("htmlparse.tokenize_us", med(func(s *docSample) float64 { return s.tokenize }), "us")
	m.set("tagtree.parse_us", med(func(s *docSample) float64 { return s.parse }), "us")
	m.set("tagtree.build_us", med(func(s *docSample) float64 { return s.parse - s.tokenize }), "us")
	m.set("tagtree.parse_ns_per_byte", med(func(s *docSample) float64 { return s.parse * 1e3 / s.bytes }), "ns/B")
	m.set("tagtree.events_per_doc", med(func(s *docSample) float64 { return s.events }), "count")
	m.set("heuristic.context_us", med(func(s *docSample) float64 { return s.context }), "us")
	for k, name := range heuristicSpans {
		m.set(name+"_us", med(func(s *docSample) float64 { return s.rank[k] }), "us")
	}
	m.set("heuristic.declines", mean(col(func(s *docSample) float64 { return s.declines })), "count")
	var recUs, recNs, entries []float64
	for _, s := range ss {
		if s.recognized {
			recUs = append(recUs, s.recognize)
			recNs = append(recNs, s.recognize*1e3/s.bytes)
			entries = append(entries, s.entries)
		}
	}
	m.set("recognizer.recognize_us", median(recUs), "us")
	m.set("recognizer.ns_per_byte", median(recNs), "ns/B")
	m.set("recognizer.entries_per_doc", median(entries), "count")
	m.set("certainty.combine_us", med(func(s *docSample) float64 { return s.combine }), "us")
	m.set("template.fingerprint_us", med(func(s *docSample) float64 { return s.finger }), "us")
	m.set("trace.selfsum_ratio", selfSumRatio(ss), "ratio")

	as, av, err := allocWalk(w, walk)
	if err != nil {
		return nil, v, nil, err
	}
	v.add(av)
	allocs := func(f func(a allocSample) float64) float64 {
		out := make([]float64, len(as))
		for i, a := range as {
			out[i] = f(a)
		}
		return median(out)
	}
	m.set("httpapi.allocs_per_req", allocs(func(a allocSample) float64 {
		if a.miss {
			return a.serve - a.core
		}
		return a.serve
	}), "count")
	m.set("obs.allocs_per_req", allocs(func(a allocSample) float64 { return a.serve - a.bare }), "count")
	m.set("core.allocs_per_doc", allocs(func(a allocSample) float64 { return a.core }), "count")

	pipeUs, pv, err := pipelineLayer(w, runs, tmp, tr, m)
	if err != nil {
		return nil, v, nil, err
	}
	v.add(pv)
	if w.bulk() {
		m.set("trace.overhead_ratio", pipeUs/untracedUs, "ratio")
	} else {
		m.set("trace.overhead_ratio", med(func(s *docSample) float64 { return s.serve })/untracedUs, "ratio")
	}
	linearity(seed, tr, m)

	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, v, nil, err
	}
	fmt.Fprintf(out, "traced %d documents; %d spans written to %s\n", len(ss), len(tr.spans), path)
	return m, v, walk, nil
}

// selfSumRatio checks the attribution on documents whose request ran core:
// the sum of the layers' median self times over the median handler time.
// Per document the self times add up to the handler time exactly; the
// ratio shows how far medians stray from that.
func selfSumRatio(ss []docSample) float64 {
	var miss []docSample
	for _, s := range ss {
		if s.miss {
			miss = append(miss, s)
		}
	}
	if len(miss) == 0 {
		return math.NaN()
	}
	col := func(f func(s *docSample) float64) float64 {
		out := make([]float64, len(miss))
		for i := range miss {
			out[i] = f(&miss[i])
		}
		return median(out)
	}
	sum := col((*docSample).httpSelf) + col((*docSample).coreSelf) +
		col(func(s *docSample) float64 { return s.parse - s.tokenize }) +
		col(func(s *docSample) float64 { return s.tokenize }) +
		col(func(s *docSample) float64 { return s.context }) +
		col(func(s *docSample) float64 { return s.combine })
	if miss[0].onPathRecognize {
		sum += col(func(s *docSample) float64 { return s.recognize })
	}
	for k := range heuristicSpans {
		sum += col(func(s *docSample) float64 { return s.rank[k] })
	}
	return sum / col(func(s *docSample) float64 { return s.serve })
}
