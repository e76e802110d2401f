package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	serveCold     = "serve-cold"
	serveOntology = "serve-ontology"
	serveHot      = "serve-hot"
	bulkRecrawl   = "bulk-recrawl"
)

var workloadNames = []string{serveCold, serveOntology, serveHot, bulkRecrawl}

// Stream shapes. The result cache holds 1024 entries, so every pool a
// workload cycles through is larger than that: a document comes back only
// after more than 1024 other distinct documents, and the LRU has evicted it.
const (
	cachePool     = 2048    // serve-cold, and the fresh documents of serve-hot
	ontologyPool  = 1280    // serve-ontology (reference answers cost ~3 ms each)
	hotSet        = 256     // serve-hot's repeated documents: well inside the cache
	hotShare      = 0.9     // share of serve-hot requests drawn from the hot set
	hotStreamLen  = 1 << 16 // serve-hot request order, cycled
	bulkPages     = 512     // bulk-recrawl distinct pages per pass
	bulkRecrawls  = 3       // later passes, each re-crawling every page
	cacheCapacity = 1024
)

// doc is one distinct input document with its reference answer.
type doc struct {
	html     string
	body     []byte // the /v1/discover request body
	domain   corpus.Domain
	ontology string // built-in ontology name sent with the request, or ""
	truth    []string
	recrawl  int // 0 for a first crawl, k for the k-th re-crawl
	ref      answer
}

// answer is the part of a discovery result the benchmark checks.
type answer struct {
	sep string
	top []string
	err string
}

func (a answer) equal(sep string, top []string) bool {
	if a.err != "" || a.sep != sep || len(a.top) != len(top) {
		return false
	}
	for i := range top {
		if a.top[i] != top[i] {
			return false
		}
	}
	return true
}

// truthOK reports whether the reference separator is a correct one.
func (d *doc) truthOK() bool {
	for _, t := range d.truth {
		if t == d.ref.sep {
			return true
		}
	}
	return false
}

// workload is the generated input of one run. Serving workloads send
// docs[stream[p % len(stream)]] as request p. bulk-recrawl feeds passes in
// order: passes[0] crawls every page once, passes[k] re-crawls each page.
type workload struct {
	name   string
	docs   []*doc
	stream []int32
	passes [][]int32
}

func (w *workload) bulk() bool { return w.name == bulkRecrawl }

// allSites returns the 60 corpus layouts: training and test sites of all
// four domains.
func allSites() []*corpus.Site {
	var sites []*corpus.Site
	for _, d := range []corpus.Domain{corpus.Obituaries, corpus.CarAds, corpus.JobAds, corpus.Courses} {
		sites = append(sites, corpus.TrainingSites(d)...)
		sites = append(sites, corpus.TestSites(d)...)
	}
	return sites
}

// pick is one (site, page index) draw.
type pick struct {
	site  *corpus.Site
	index int
}

// drawPages draws n distinct (site, index) pairs from r.
func drawPages(r *rand.Rand, sites []*corpus.Site, n int) []pick {
	seen := make(map[pick]bool, n)
	out := make([]pick, 0, n)
	for len(out) < n {
		p := pick{sites[r.Intn(len(sites))], r.Intn(1 << 24)}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// generate builds the named workload from seed. The same seed always gives
// the same documents in the same order.
func generate(name string, seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
	sites := allSites()
	w := &workload{name: name}
	switch name {
	case serveCold, serveOntology:
		withOntology := name == serveOntology
		n := cachePool
		if withOntology {
			n = ontologyPool
		}
		w.docs = pagesToDocs(drawPages(r, sites, n), withOntology)
		for _, i := range r.Perm(n) {
			w.stream = append(w.stream, int32(i))
		}
	case serveHot:
		w.docs = pagesToDocs(drawPages(r, sites, hotSet+cachePool), false)
		fresh := 0
		w.stream = make([]int32, hotStreamLen)
		for p := range w.stream {
			if r.Float64() < hotShare {
				w.stream[p] = int32(r.Intn(hotSet))
			} else {
				w.stream[p] = int32(hotSet + fresh%cachePool)
				fresh++
			}
		}
	case bulkRecrawl:
		pages := drawPages(r, sites, bulkPages)
		first := pagesToDocs(pages, false)
		w.docs = first
		for k := 0; k <= bulkRecrawls; k++ {
			pass := make([]int32, 0, bulkPages)
			for _, i := range r.Perm(bulkPages) {
				pass = append(pass, int32(k*bulkPages+i))
			}
			w.passes = append(w.passes, pass)
			if k == 0 {
				continue
			}
			for _, d := range first {
				rc := *d
				rc.html = rotateDigits(d.html, k)
				rc.recrawl = k
				w.docs = append(w.docs, &rc)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := w.prepare(); err != nil {
		return nil, err
	}
	return w, nil
}

// pagesToDocs renders the drawn pages.
func pagesToDocs(pages []pick, withOntology bool) []*doc {
	docs := make([]*doc, len(pages))
	parallel(len(pages), func(i int) {
		p := pages[i]
		g := p.site.Generate(p.index)
		d := &doc{html: g.HTML, domain: p.site.Domain, truth: g.Truth}
		if withOntology {
			d.ontology = string(p.site.Domain)
		}
		docs[i] = d
	})
	return docs
}

// prepare encodes request bodies and computes every reference answer with
// the plain heap path: core.Discover, no cache, no wrapper store, no arena.
func (w *workload) prepare() error {
	seen := make(map[string]bool, len(w.docs))
	for _, d := range w.docs {
		if seen[d.html] {
			return fmt.Errorf("%s: generator produced a duplicate document", w.name)
		}
		seen[d.html] = true
	}
	parallel(len(w.docs), func(i int) {
		d := w.docs[i]
		d.body, _ = json.Marshal(discoverRequest{HTML: d.html, Ontology: d.ontology})
		res, err := core.Discover(d.html, core.Options{Ontology: ontologyOf(d)})
		if err != nil {
			d.ref = answer{err: err.Error()}
			return
		}
		d.ref = answer{sep: res.Separator, top: res.TopTags}
	})
	return nil
}

// discoverRequest is the /v1/discover request body.
type discoverRequest struct {
	HTML     string `json:"html"`
	Ontology string `json:"ontology,omitempty"`
}

// rotateDigits is a re-crawl: every digit of the page's text moves k places
// (mod 10), while markup, entities and text lengths stay as they were, so
// the template fingerprint and the separator evidence are unchanged.
func rotateDigits(html string, k int) string {
	b := []byte(html)
	inTag, inEntity := false, false
	for i, c := range b {
		switch {
		case inTag:
			inTag = c != '>'
		case c == '<':
			inTag, inEntity = true, false
		case inEntity:
			inEntity = c != ';' && c != ' ' && c != '<'
		case c == '&':
			inEntity = true
		case c >= '0' && c <= '9':
			b[i] = '0' + (c-'0'+byte(k))%10
		}
	}
	return string(b)
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// properties are the measured input properties a run reports, so a later
// change that helps only some inputs can quote the share it helps.
type properties struct {
	Docs           int     `json:"docs"`
	Bytes          int     `json:"bytes"`
	SizeQ1         float64 `json:"size_q1"`
	SizeMedian     float64 `json:"size_median"`
	SizeQ3         float64 `json:"size_q3"`
	Requests       int     `json:"requests"`
	RepeatFrac     float64 `json:"repeat_frac"`
	RepeatNearFrac float64 `json:"repeat_within_1024_frac"`
	RecrawlFrac    float64 `json:"recrawl_frac"`
	OntologyFrac   float64 `json:"ontology_frac"`
}

// measureProperties describes the distinct documents and the documents
// served, in the order they were served.
func (w *workload) measureProperties(served []int32) properties {
	p := properties{Docs: len(w.docs), Requests: len(served)}
	sizes := make([]float64, len(w.docs))
	for i, d := range w.docs {
		p.Bytes += len(d.html)
		sizes[i] = float64(len(d.html))
	}
	sort.Float64s(sizes)
	p.SizeQ1, p.SizeMedian, p.SizeQ3 = quartiles(sizes)
	if len(served) == 0 {
		return p
	}
	last := make(map[int32]int, len(w.docs))
	var repeat, near, recrawl, ont int
	for pos, i := range served {
		if prev, ok := last[i]; ok {
			repeat++
			if pos-prev <= cacheCapacity {
				near++
			}
		}
		last[i] = pos
		if w.docs[i].recrawl > 0 {
			recrawl++
		}
		if w.docs[i].ontology != "" {
			ont++
		}
	}
	n := float64(len(served))
	p.RepeatFrac, p.RepeatNearFrac = float64(repeat)/n, float64(near)/n
	p.RecrawlFrac, p.OntologyFrac = float64(recrawl)/n, float64(ont)/n
	return p
}

// prefix is the documents of request positions 0..n-1.
func (w *workload) prefix(n int) []int32 {
	out := make([]int32, n)
	for pos := range out {
		out[pos] = w.docAt(pos)
	}
	return out
}

// docAt is the document of request position pos (bulk: pass after pass).
func (w *workload) docAt(pos int) int32 {
	if w.bulk() {
		per := bulkPages * len(w.passes)
		pos %= per
		return w.passes[pos/bulkPages][pos%bulkPages]
	}
	return w.stream[pos%len(w.stream)]
}
