package classify

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmlparse"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// singleObituary is a detail page with exactly one record.
const singleObituary = `<html><body>
<h1>Obituary</h1>
<div>
<b>Harold W. Whitaker</b> passed away on March 3, 1998. Harold was born on
June 1, 1920 in Ogden. Funeral services will be held Friday at 11:00 a.m.
at WASATCH FUNERAL HOME. Interment will follow in Evergreen Cemetery.
<p>He is survived by his wife and three daughters.</p>
<p>The family thanks the staff of the county hospital.</p>
</div>
</body></html>`

// navPage has structure (a link list) but no record content.
const navPage = `<html><body>
<ul>
<li><a href="news.html">News</a>
<li><a href="sports.html">Sports</a>
<li><a href="obits.html">Obituaries</a>
<li><a href="classifieds.html">Classifieds</a>
<li><a href="weather.html">Weather</a>
<li><a href="contact.html">Contact us</a>
</ul>
</body></html>`

func obituaryOnt() *ontology.Ontology { return ontology.Builtin("obituary") }

func TestClassifyMultiRecordPages(t *testing.T) {
	for _, d := range corpus.TestDocuments() {
		res, err := Classify(context.Background(), d.HTML, d.Site.Domain.Ontology(), tagtree.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != MultipleRecords {
			t.Errorf("%s %s: kind = %v (estimate %.1f, fanout %d), want multiple-records",
				d.Site.Name, d.Site.Domain, res.Kind, res.Estimate, res.FanOut)
		}
		if res.Estimate < 2 {
			t.Errorf("%s: estimate %.1f too low for %d records", d.Site.Name, res.Estimate, d.Records)
		}
	}
}

func TestClassifySingleRecordPage(t *testing.T) {
	res, err := Classify(context.Background(), singleObituary, obituaryOnt(), tagtree.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != SingleRecord {
		t.Errorf("kind = %v (estimate %.2f), want single-record", res.Kind, res.Estimate)
	}
}

func TestClassifyNoRecordsPage(t *testing.T) {
	res, err := Classify(context.Background(), navPage, obituaryOnt(), tagtree.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != NoRecords {
		t.Errorf("kind = %v (estimate %.2f), want no-records", res.Kind, res.Estimate)
	}
}

func TestClassifyStructuralVeto(t *testing.T) {
	// An article that mentions several deaths in running prose has the
	// keyword counts of "multiple records" but no repeated structure: a
	// single flat paragraph.
	article := `<html><body><p>` +
		strings.Repeat(`The victim passed away on March 3, 1998. Funeral services
were announced. Interment followed. `, 4) +
		`</p></body></html>`
	res, err := Classify(context.Background(), article, obituaryOnt(), tagtree.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind == MultipleRecords && res.FanOut < 4 {
		t.Errorf("flat article classified multiple-records with fan-out %d", res.FanOut)
	}
}

func TestClassifyRequiresUsableOntology(t *testing.T) {
	tiny := ontology.MustParse("ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}")
	if _, err := Classify(context.Background(), singleObituary, tiny, tagtree.Limits{}); err == nil {
		t.Error("expected error for ontology without 3 record-identifying fields")
	}
}

func TestSpanAnalysisDetectsSplitRecord(t *testing.T) {
	// One obituary split across two pages: the death notice on page one,
	// funeral and interment details on page two.
	page1 := `<html><body><div><b>Harold W. Whitaker</b> passed away on
March 3, 1998, at his home, after a long illness. He was born June 1, 1920.
<a href="page2.html">continued</a></div></body></html>`
	page2 := `<html><body><div>Funeral services will be held Friday at
11:00 a.m. at WASATCH FUNERAL HOME. Interment will follow in Evergreen
Cemetery.</div></body></html>`

	res, err := SpanAnalysis([]string{page1, page2}, obituaryOnt())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanning {
		t.Fatalf("spanning not detected: per-page %v/%v (est %.2f/%.2f), joint %v (est %.2f)",
			res.PerPage[0].Kind, res.PerPage[1].Kind,
			res.PerPage[0].Estimate, res.PerPage[1].Estimate,
			res.Joint.Kind, res.Joint.Estimate)
	}
	for i, r := range res.PerPage {
		if r.Kind != PartialRecord {
			t.Errorf("page %d kind = %v, want partial-record", i+1, r.Kind)
		}
	}
}

func TestSpanAnalysisWholeRecordsNotSpanning(t *testing.T) {
	// Two complete single-record pages are not a spanning record.
	res, err := SpanAnalysis([]string{singleObituary, singleObituary}, obituaryOnt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanning {
		t.Error("two complete records misreported as spanning")
	}
	for i, r := range res.PerPage {
		if r.Kind != SingleRecord {
			t.Errorf("page %d kind = %v, want single-record", i+1, r.Kind)
		}
	}
}

func TestSpanAnalysisSinglePage(t *testing.T) {
	res, err := SpanAnalysis([]string{singleObituary}, obituaryOnt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanning {
		t.Error("single page cannot span")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		NoRecords: "no-records", SingleRecord: "single-record",
		MultipleRecords: "multiple-records", PartialRecord: "partial-record",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
}

// TestClassifyHonorsLimitsAndContext: the document is parsed under the
// caller's limits and context, with their sentinel errors, like discovery.
func TestClassifyHonorsLimitsAndContext(t *testing.T) {
	ont := obituaryOnt()
	bg := context.Background()
	if _, err := Classify(bg, singleObituary, ont, tagtree.Limits{MaxBytes: 64}); !errors.Is(err, htmlparse.ErrTooLarge) {
		t.Errorf("oversized: err = %v, want ErrTooLarge", err)
	}
	if _, err := Classify(bg, singleObituary, ont, tagtree.Limits{MaxDepth: 2}); !errors.Is(err, tagtree.ErrTooDeep) {
		t.Errorf("deep: err = %v, want ErrTooDeep", err)
	}
	if _, err := Classify(bg, singleObituary, ont, tagtree.Limits{MaxNodes: 3}); !errors.Is(err, tagtree.ErrTooManyNodes) {
		t.Errorf("wide: err = %v, want ErrTooManyNodes", err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Classify(ctx, singleObituary, ont, tagtree.Limits{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: err = %v, want context.Canceled", err)
	}
}
