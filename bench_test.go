package repro

// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkTableN measures the full computation behind that table;
// BenchmarkLinearScaling checks the paper's O(n) claim (§3, §5.3) by
// sweeping document size; the ablation benchmarks cover the design knobs
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The printed experiment outputs themselves come from cmd/experiments.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/certainty"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
	"repro/internal/template"
	"repro/internal/wrapper"
)

// BenchmarkFigure2Document measures the §5.3 worked example end-to-end:
// tag tree, candidates, all five heuristics, and the compound combination
// on the paper's Figure 2 page.
func BenchmarkFigure2Document(b *testing.B) {
	ont := ontology.Builtin("obituary")
	b.SetBytes(int64(len(paperdoc.Figure2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Discover(paperdoc.Figure2, core.Options{Ontology: ont})
		if err != nil || res.Separator != "hr" {
			b.Fatalf("separator = %v, err = %v", res, err)
		}
	}
}

// benchTraining measures evaluating one 50-document training corpus (the
// computation behind Tables 2 and 3).
func benchTraining(b *testing.B, d corpus.Domain) {
	docs := corpus.TrainingDocuments(d)
	total := 0
	for _, doc := range docs {
		total += len(doc.HTML)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.EvaluateAll(docs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sr := eval.SuccessRate(results); sr != 1.0 {
			b.Fatalf("ORSIH success = %v, want 1.0", sr)
		}
	}
}

// BenchmarkTable2Obituaries regenerates the obituary training distribution.
func BenchmarkTable2Obituaries(b *testing.B) { benchTraining(b, corpus.Obituaries) }

// BenchmarkTable3CarAds regenerates the car-ad training distribution.
func BenchmarkTable3CarAds(b *testing.B) { benchTraining(b, corpus.CarAds) }

// BenchmarkTable4Calibration measures deriving certainty factors from the
// measured training distributions (Tables 2+3 → Table 4).
func BenchmarkTable4Calibration(b *testing.B) {
	obits, err := eval.EvaluateAll(corpus.TrainingDocuments(corpus.Obituaries), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cars, err := eval.EvaluateAll(corpus.TrainingDocuments(corpus.CarAds), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dists := append(eval.RankingDistribution(obits), eval.RankingDistribution(cars)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := certainty.Calibrate(dists)
		if len(t) != 5 {
			b.Fatalf("calibrated table has %d heuristics", len(t))
		}
	}
}

// BenchmarkTable5CombinationSweep measures scoring all 26 heuristic
// combinations over the 100 training documents.
func BenchmarkTable5CombinationSweep(b *testing.B) {
	obits, err := eval.EvaluateAll(corpus.TrainingDocuments(corpus.Obituaries), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cars, err := eval.EvaluateAll(corpus.TrainingDocuments(corpus.CarAds), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	all := append(obits, cars...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.CombinationSweep(all, certainty.PaperTable)
		if len(rows) != 26 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchTestSet measures one Tables 6–9 test-set evaluation.
func benchTestSet(b *testing.B, d corpus.Domain) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.TestSetTable(d)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.A != 1 {
				b.Fatalf("%s: compound rank %d", row.Site, row.A)
			}
		}
	}
}

// BenchmarkTable6TestObituaries regenerates test set 1.
func BenchmarkTable6TestObituaries(b *testing.B) { benchTestSet(b, corpus.Obituaries) }

// BenchmarkTable7TestCarAds regenerates test set 2.
func BenchmarkTable7TestCarAds(b *testing.B) { benchTestSet(b, corpus.CarAds) }

// BenchmarkTable8TestJobAds regenerates test set 3.
func BenchmarkTable8TestJobAds(b *testing.B) { benchTestSet(b, corpus.JobAds) }

// BenchmarkTable9TestCourses regenerates test set 4.
func BenchmarkTable9TestCourses(b *testing.B) { benchTestSet(b, corpus.Courses) }

// BenchmarkTable10SuccessRates measures the final 20-document success-rate
// computation.
func BenchmarkTable10SuccessRates(b *testing.B) {
	docs := corpus.TestDocuments()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.EvaluateAll(docs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rates := eval.IndividualSuccessRates(results)
		if rates["ORSIH"] != 1.0 {
			b.Fatalf("ORSIH = %v", rates["ORSIH"])
		}
	}
}

// BenchmarkLinearScaling sweeps document size (records × multiplier) to
// exhibit the paper's O(n) behaviour: ns/op should grow roughly linearly
// with bytes processed (compare the MB/s column across sizes).
func BenchmarkLinearScaling(b *testing.B) {
	ont := ontology.Builtin("obituary")
	for _, mult := range []int{1, 4, 16, 64} {
		records := 8 * mult
		site := &corpus.Site{
			Name:   fmt.Sprintf("scale-%dx", mult),
			Domain: corpus.Obituaries,
			Profile: corpus.Profile{
				Container: []string{"div"},
				Layout:    corpus.Delimited,
				Separator: "hr",
				Records:   [2]int{records, records},
				BoldRuns:  [2]int{2, 3},
				Breaks:    [2]int{1, 2},
				BaseSize:  300,
			},
		}
		doc := site.Generate(0)
		b.Run(fmt.Sprintf("%dx_%dKB", mult, len(doc.HTML)/1024), func(b *testing.B) {
			b.SetBytes(int64(len(doc.HTML)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(doc.HTML, core.Options{Ontology: ont})
				if err != nil || res.Separator != "hr" {
					b.Fatalf("res = %v err = %v", res, err)
				}
			}
		})
	}
}

// BenchmarkAblationCandidateThreshold sweeps the irrelevant-tag cutoff
// around the paper's 10% choice.
func BenchmarkAblationCandidateThreshold(b *testing.B) {
	ont := ontology.Builtin("obituary")
	for _, threshold := range []float64{0.02, 0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("%.0f%%", threshold*100), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(paperdoc.Figure2, core.Options{
					Ontology:           ont,
					CandidateThreshold: threshold,
				})
				if err != nil || res.Separator != "hr" {
					b.Fatalf("threshold %v: res=%v err=%v", threshold, res, err)
				}
			}
		})
	}
}

// BenchmarkAblationHeuristicSubsets measures the per-document cost of the
// paper's headline combinations (Table 5's winners plus cheap baselines).
func BenchmarkAblationHeuristicSubsets(b *testing.B) {
	ont := ontology.Builtin("obituary")
	combos := []certainty.Combination{
		{certainty.IT, certainty.HT},
		{certainty.OM, certainty.IT},
		{certainty.OM, certainty.RP, certainty.SD, certainty.IT},
		certainty.AllHeuristics,
	}
	for _, combo := range combos {
		b.Run(combo.Abbrev(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(paperdoc.Figure2, core.Options{
					Ontology:    ont,
					Combination: combo,
				})
				if err != nil || res.Separator != "hr" {
					b.Fatalf("%s: res=%v err=%v", combo.Abbrev(), res, err)
				}
			}
		})
	}
}

// BenchmarkExtractPipeline measures the complete Figure 1 pipeline —
// boundary discovery, recognition, correlation, database population — on a
// mid-sized synthetic page.
func BenchmarkExtractPipeline(b *testing.B) {
	site := corpus.TestSites(corpus.CarAds)[2] // wrapped table layout
	doc := site.Generate(0)
	ont := ontology.Builtin("carad")
	b.SetBytes(int64(len(doc.HTML)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Extract(doc.HTML, ont)
		if err != nil {
			b.Fatal(err)
		}
		if db.Table("CarAd").Len() == 0 {
			b.Fatal("no records extracted")
		}
	}
}

// BenchmarkCorpusGeneration measures synthesizing the full 120-document
// corpus (both training domains plus the test set).
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := len(corpus.TrainingDocuments(corpus.Obituaries)) +
			len(corpus.TrainingDocuments(corpus.CarAds)) +
			len(corpus.TestDocuments())
		if n != 120 {
			b.Fatalf("corpus = %d docs", n)
		}
	}
}

// BenchmarkSplitRecords measures record chunking on a large page.
func BenchmarkSplitRecords(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body><div>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "<hr><b>Record %d</b> body text with several words in it.", i)
	}
	sb.WriteString("<hr></div></body></html>")
	doc := sb.String()
	res, err := Discover(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := Split(doc, res)
		if len(recs) != 200 {
			b.Fatalf("records = %d", len(recs))
		}
	}
}

// BenchmarkParallelEvaluation compares sequential and worker-pool corpus
// evaluation (the production crawl shape).
func BenchmarkParallelEvaluation(b *testing.B) {
	docs := corpus.TestDocuments()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := eval.EvaluateAllParallel(docs, core.Options{}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 20 {
					b.Fatal("wrong result count")
				}
			}
		})
	}
}

// BenchmarkDiscoverXML measures footnote 1's XML generalization on a
// synthetic feed.
func BenchmarkDiscoverXML(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<export><ads>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "<ad><vehicle>1994 Ford %d</vehicle><price>$%d</price><contact>(801) 555-%04d</contact></ad>", i, 1000+i, i)
	}
	sb.WriteString("</ads></export>")
	feed := sb.String()
	opts := Options{SeparatorList: []string{"ad", "item"}}
	b.SetBytes(int64(len(feed)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := DiscoverXML(feed, opts)
		if err != nil || res.Separator != "ad" {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkWrapperApplyVsDiscover shows why a learned wrapper exists: Apply
// skips the heuristic voting entirely.
func BenchmarkWrapperApplyVsDiscover(b *testing.B) {
	site := corpus.TrainingSites(corpus.Obituaries)[0]
	samples := []string{site.Generate(0).HTML, site.Generate(1).HTML, site.Generate(2).HTML}
	w, err := wrapper.Learn(samples, ontology.Builtin("obituary"))
	if err != nil {
		b.Fatal(err)
	}
	target := site.Generate(9).HTML
	b.Run("WrapperApply", func(b *testing.B) {
		b.SetBytes(int64(len(target)))
		for i := 0; i < b.N; i++ {
			if _, err := w.Apply(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullDiscover", func(b *testing.B) {
		b.SetBytes(int64(len(target)))
		ont := ontology.Builtin("obituary")
		for i := 0; i < b.N; i++ {
			res, err := core.Discover(target, core.Options{Ontology: ont})
			if err != nil {
				b.Fatal(err)
			}
			core.Split(target, res)
		}
	})
}

// openBenchStore builds an in-memory template store pre-warmed with the
// Figure 2 wrapper, returning the store and the salt the serving layer
// would use for that request shape.
func openBenchStore(b *testing.B) (*template.Store, string) {
	b.Helper()
	store, err := template.Open(template.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	salt := template.Salt("html", "obituary", nil)
	res, err := core.Discover(paperdoc.Figure2, core.Options{
		Ontology:     ontology.Builtin("obituary"),
		Templates:    store,
		TemplateSalt: salt,
	})
	if err != nil || res.Separator != "hr" {
		b.Fatalf("warm discovery: res=%v err=%v", res, err)
	}
	if store.Len() != 1 {
		b.Fatalf("warm store holds %d entries, want 1", store.Len())
	}
	return store, salt
}

// BenchmarkTemplateHit measures the learned-wrapper fast path on a warm
// store: fingerprint the raw document, look up the stored wrapper, done.
// Compare against BenchmarkTemplateMissFallback (or BenchmarkFigure2Document)
// for the cost the store saves; docs/WRAPPER.md quotes the ratio.
func BenchmarkTemplateHit(b *testing.B) {
	store, salt := openBenchStore(b)
	b.SetBytes(int64(len(paperdoc.Figure2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _, ok := store.LookupDoc(paperdoc.Figure2, salt, tagtree.Limits{})
		if !ok || e.Separator != "hr" {
			b.Fatalf("warm lookup: entry=%v ok=%v", e, ok)
		}
	}
}

// BenchmarkTemplateMissFallback measures the same request when the store
// has no wrapper for the template: the miss costs one lookup on top of full
// discovery, then the result is learned. Resetting per iteration keeps every
// pass on the miss path.
func BenchmarkTemplateMissFallback(b *testing.B) {
	store, salt := openBenchStore(b)
	ont := ontology.Builtin("obituary")
	b.SetBytes(int64(len(paperdoc.Figure2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Reset()
		res, err := core.Discover(paperdoc.Figure2, core.Options{
			Ontology:     ont,
			Templates:    store,
			TemplateSalt: salt,
		})
		if err != nil || res.Separator != "hr" {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// TestTemplateFastPathSpeedup is the perf claim behind the template store:
// serving a warm template hit must be at least 50× faster than the cold
// Figure 2 discovery it replaces. Measured here with testing.Benchmark so
// the ratio is enforced, not just reported.
func TestTemplateFastPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark ratio check skipped in -short mode")
	}
	store, err := template.Open(template.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	salt := template.Salt("html", "obituary", nil)
	ont := ontology.Builtin("obituary")
	if _, err := core.Discover(paperdoc.Figure2, core.Options{
		Ontology: ont, Templates: store, TemplateSalt: salt,
	}); err != nil {
		t.Fatal(err)
	}
	// `go test ./...` runs package test binaries concurrently, and the warm
	// side is microseconds per op — one descheduled slice can inflate a
	// single measurement severalfold. Measure up to a few trials and pass on
	// the first that clears the floor; fail only if none do (idle-machine
	// ratios run ~80-110x, so a persistent miss of 50x is a real regression,
	// not scheduling noise).
	const trials = 4
	best := 0.0
	for trial := 0; trial < trials; trial++ {
		warm := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := store.LookupDoc(paperdoc.Figure2, salt, tagtree.Limits{}); !ok {
					b.Fatal("warm lookup missed")
				}
			}
		})
		cold := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Discover(paperdoc.Figure2, core.Options{Ontology: ont}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ratio := float64(cold.NsPerOp()) / float64(warm.NsPerOp())
		t.Logf("trial %d: cold %d ns/op, warm %d ns/op: %.1fx", trial, cold.NsPerOp(), warm.NsPerOp(), ratio)
		if ratio >= 50 {
			return
		}
		if ratio > best {
			best = ratio
		}
	}
	t.Errorf("warm template hit is %.1fx faster than cold discovery at best over %d trials, want >= 50x",
		best, trials)
}

// postJSON drives one HTTP round-trip against the serving layer, draining
// the body so connections are reused across iterations.
func postJSON(b *testing.B, client *http.Client, url string, body []byte) {
	b.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status = %d", resp.StatusCode)
	}
}

// BenchmarkServeCacheHitVsMiss contrasts a discovery request that must run
// the full pipeline with the identical request answered from the result
// cache. The gap is the pipeline cost the cache saves; the hit side is pure
// HTTP + JSON + LRU overhead.
func BenchmarkServeCacheHitVsMiss(b *testing.B) {
	body, err := json.Marshal(map[string]string{"html": paperdoc.Figure2})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cacheSize int) {
		srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{CacheSize: cacheSize}))
		defer srv.Close()
		client := srv.Client()
		postJSON(b, client, srv.URL+"/v1/discover", body) // warm (fills the cache when enabled)
		b.SetBytes(int64(len(paperdoc.Figure2)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postJSON(b, client, srv.URL+"/v1/discover", body)
		}
	}
	b.Run("miss", func(b *testing.B) { run(b, 0) }) // cache disabled: every request recomputes
	b.Run("hit", func(b *testing.B) { run(b, 8) })
}

// BenchmarkServeBatchThroughput measures the batch endpoint fanning 32
// distinct documents across its worker pool, with caching disabled so every
// iteration pays full pipeline cost (the crawl-shaped workload).
func BenchmarkServeBatchThroughput(b *testing.B) {
	docs := make([]map[string]string, 32)
	total := 0
	for i := range docs {
		doc := corpus.TrainingSites(corpus.Obituaries)[i%10].Generate(i).HTML
		docs[i] = map[string]string{"html": doc}
		total += len(doc)
	}
	body, err := json.Marshal(map[string]any{"documents": docs})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv := httptest.NewServer(httpapi.NewHandler(httpapi.Config{BatchWorkers: workers}))
			defer srv.Close()
			client := srv.Client()
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postJSON(b, client, srv.URL+"/v1/discover/batch", body)
			}
		})
	}
}

// benchCorpus assembles the 220-document benchmark corpus — every domain's
// training documents plus the 20-site test set, the same population
// cmd/evalrun scores — and its total byte size.
func benchCorpus() ([]*corpus.Document, int64) {
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	docs = append(docs, corpus.TestDocuments()...)
	var total int64
	for _, doc := range docs {
		total += int64(len(doc.HTML))
	}
	return docs, total
}

// BenchmarkCorpusThroughput is the headline MB/s number for boundary
// discovery over the 220-document corpus (no ontology — the pure structural
// path every request pays). ByteArena is the pooled path: []byte input, one
// arena reset per document, zero parse-side allocations warm. NilArena is
// core.Discover with no arena — the same parser on a fresh, unpooled arena
// per document — kept as the in-run reference so TestCorpusThroughputGate
// can assert the ratio without depending on the machine. The MB/s this
// reports is what the CI throughput-gate job compares against BENCH_6.json.
func BenchmarkCorpusThroughput(b *testing.B) {
	docs, total := benchCorpus()
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = []byte(d.HTML)
	}

	b.Run("ByteArena", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		discoverCorpus(b, raw, nil, false)
	})

	// The byte path as deployed: a warmed metrics registry, and with it a
	// fresh trace per document as a traced request carries.
	// TestObservedThroughputGate holds both against ByteArena.
	b.Run("ByteArenaObserved", func(b *testing.B) {
		b.Run("Metrics", func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			discoverCorpus(b, raw, obs.NewRegistry(), false)
		})
		b.Run("MetricsAndTrace", func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			discoverCorpus(b, raw, obs.NewRegistry(), true)
		})
	})

	b.Run("ByteArenaOntology", func(b *testing.B) {
		// With each domain's ontology armed — the recognizer scan included,
		// matching the configuration behind BENCH_3's Table benchmarks
		// (~2.6 MB/s there).
		arena := tagtree.AcquireArena()
		defer arena.Release()
		onts := make([]*ontology.Ontology, len(docs))
		for i, d := range docs {
			onts[i] = d.Site.Domain.Ontology()
		}
		b.SetBytes(total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, doc := range raw {
				if _, err := core.DiscoverBytes(doc, core.Options{Ontology: onts[j], Arena: arena}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("NilArena", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				if _, err := core.Discover(d.HTML, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestCorpusThroughputGate enforces the byte-path throughput claim as a test,
// so a regression fails `go test ./...` rather than only shifting a benchmark
// number nobody is watching. Two floors:
//
//   - Absolute: ≥ 30 MB/s over the 220-doc corpus — 10× the 2.6–3.0 MB/s the
//     archived BENCH_3/BENCH_5 discover path measured on this class of
//     machine (BENCH_5's Table rows ran as low as 1.43 MB/s).
//   - Relative: ≥ 1.5× the unpooled nil-arena core.Discover measured in the
//     same run, which holds even if the machine itself is slow or contended.
//
// Idle-machine numbers run ~70 MB/s and ~2.0×; best-of-trials absorbs
// scheduling noise on shared runners.
func TestCorpusThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark ratio check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("throughput floors are meaningless under -race instrumentation")
	}
	docs, total := benchCorpus()
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = []byte(d.HTML)
	}
	const (
		minMBs   = 30.0
		minRatio = 1.5
		trials   = 3
	)
	mbs := func(r testing.BenchmarkResult) float64 {
		return float64(total) / (float64(r.NsPerOp()) / 1e9) / 1e6
	}
	bestAbs, bestRatio := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		byteRes := testing.Benchmark(func(b *testing.B) {
			discoverCorpus(b, raw, nil, false)
		})
		unpooledRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					if _, err := core.Discover(d.HTML, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		abs, ratio := mbs(byteRes), float64(unpooledRes.NsPerOp())/float64(byteRes.NsPerOp())
		t.Logf("trial %d: pooled %.1f MB/s, unpooled %.1f MB/s, ratio %.2fx",
			trial, abs, mbs(unpooledRes), ratio)
		if abs >= minMBs && ratio >= minRatio {
			return
		}
		if abs > bestAbs {
			bestAbs = abs
		}
		if ratio > bestRatio {
			bestRatio = ratio
		}
	}
	t.Errorf("pooled path best of %d trials: %.1f MB/s (want >= %.0f) at %.2fx unpooled (want >= %.1fx)",
		trials, bestAbs, minMBs, bestRatio, minRatio)
}

// discoverCorpus runs pooled byte-path discovery over every document in raw,
// b.N times, on one arena. reg, when non-nil, receives the metrics and is
// warmed by one untimed pass, so the timed passes only repeat lookups;
// traced attaches a fresh trace to each document.
func discoverCorpus(b *testing.B, raw [][]byte, reg *obs.Registry, traced bool) {
	arena := tagtree.AcquireArena()
	defer arena.Release()
	opts := core.Options{Arena: arena, Metrics: reg}
	if reg != nil {
		if err := discoverPass(raw, opts, traced); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := discoverPass(raw, opts, traced); err != nil {
			b.Fatal(err)
		}
	}
}

// discoverPass runs DiscoverBytes once over every document in raw under
// opts, with a fresh trace per document when traced.
func discoverPass(raw [][]byte, opts core.Options, traced bool) error {
	for _, doc := range raw {
		if traced {
			opts.Trace = obs.NewTrace()
		}
		if _, err := core.DiscoverBytes(doc, opts); err != nil {
			return err
		}
	}
	return nil
}

// TestObservedThroughputGate holds the cost of instrumentation left on: in
// the same run, the byte path with a warmed metrics registry keeps at least
// 0.95 of the bare path's throughput, and with a trace per document as well
// at least 0.90. Ratios, not MB/s, so the gate holds on a slow machine. The
// three configurations take turns on every document, in rotating order, so
// a burst of load elsewhere on the machine lands on all three alike; a
// round is one corpus pass, a trial takes the median of its rounds'
// ratios, and the gate takes the best of three trials.
func TestObservedThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark ratio check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("throughput floors are meaningless under -race instrumentation")
	}
	docs, _ := benchCorpus()
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = []byte(d.HTML)
	}
	const (
		minMetrics = 0.95
		minTraced  = 0.90
		trials     = 3
		rounds     = 15
	)
	arena := tagtree.AcquireArena()
	defer arena.Release()
	bestMetrics, bestTraced := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		bare := core.Options{Arena: arena}
		metered := core.Options{Arena: arena, Metrics: obs.NewRegistry()}
		traced := core.Options{Arena: arena, Metrics: obs.NewRegistry()}
		var metricsRatios, tracedRatios []float64
		for round := 0; round <= rounds; round++ { // round 0 warms the registries
			var d [3]time.Duration
			for i, doc := range raw {
				for k := 0; k < 3; k++ {
					c := (i + k) % 3
					opts := bare
					switch c {
					case 1:
						opts = metered
					case 2:
						opts = traced
						opts.Trace = obs.NewTrace()
					}
					start := time.Now()
					if _, err := core.DiscoverBytes(doc, opts); err != nil {
						t.Fatal(err)
					}
					d[c] += time.Since(start)
				}
			}
			if round > 0 {
				metricsRatios = append(metricsRatios, float64(d[0])/float64(d[1]))
				tracedRatios = append(tracedRatios, float64(d[0])/float64(d[2]))
			}
		}
		m, tr := medianOf(metricsRatios), medianOf(tracedRatios)
		t.Logf("trial %d: median of %d rounds: metrics %.3f, metrics and trace %.3f of bare throughput",
			trial, rounds, m, tr)
		bestMetrics, bestTraced = max(bestMetrics, m), max(bestTraced, tr)
		if bestMetrics >= minMetrics && bestTraced >= minTraced {
			return
		}
	}
	t.Errorf("best of %d trials: metrics %.3f of bare throughput (want >= %.2f), metrics and trace %.3f (want >= %.2f)",
		trials, bestMetrics, minMetrics, bestTraced, minTraced)
}

// medianOf returns the median of xs, reordering it.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// BenchmarkTagTreeVsFullDiscovery isolates the tag-tree construction share
// of the end-to-end cost (the paper's Appendix A component).
func BenchmarkTagTreeVsFullDiscovery(b *testing.B) {
	doc := corpus.TestSites(corpus.Obituaries)[1].Generate(0)
	b.Run("TagTreeOnly", func(b *testing.B) {
		b.SetBytes(int64(len(doc.HTML)))
		for i := 0; i < b.N; i++ {
			tagtree.Parse(doc.HTML)
		}
	})
	b.Run("FullDiscovery", func(b *testing.B) {
		b.SetBytes(int64(len(doc.HTML)))
		for i := 0; i < b.N; i++ {
			if _, err := Discover(doc.HTML); err != nil {
				b.Fatal(err)
			}
		}
	})
}
