package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmlparse"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/wire"
)

// samplesFor generates n training documents for a site.
func samplesFor(s *corpus.Site, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.Generate(i).HTML
	}
	return out
}

func learn(t *testing.T, samples []string, ont *ontology.Ontology) wire.Wrapper {
	t.Helper()
	w, err := LearnSeparator(context.Background(), samples, Options{Ontology: ont})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLearnSeparatorFromConsistentSite(t *testing.T) {
	for _, d := range corpus.AllDomains {
		site := corpus.TestSites(d)[0]
		w := learn(t, samplesFor(site, 5), d.Ontology())
		truth := site.Profile.Truth()
		ok := false
		for _, tag := range truth {
			if w.Separator == tag {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: learned separator %q not in truth %v", d, w.Separator, truth)
		}
		if w.Agreement != 1.0 {
			t.Errorf("%s: agreement = %v, want 1.0 on a consistent site", d, w.Agreement)
		}
		if w.Confidence < 0.9 {
			t.Errorf("%s: confidence = %v, suspiciously low", d, w.Confidence)
		}
		if w.SampleSize != 5 {
			t.Errorf("%s: sample size = %d", d, w.SampleSize)
		}
		if w.Version != wire.WrapperVersion || w.Ontology != ontology.BuiltinName(d.Ontology()) {
			t.Errorf("%s: version %d, ontology %q", d, w.Version, w.Ontology)
		}
	}
}

func TestApplySeparatorToUnseenDocuments(t *testing.T) {
	site := corpus.TrainingSites(corpus.Obituaries)[0] // Salt Lake Tribune
	w := learn(t, samplesFor(site, 3), corpus.Obituaries.Ontology())
	// Apply to documents not in the training sample.
	for idx := 10; idx < 14; idx++ {
		doc := site.Generate(idx)
		recs, err := ApplySeparator(context.Background(), doc.HTML, w.Separator, Options{})
		if err != nil {
			t.Fatalf("doc %d: %v", idx, err)
		}
		// Delimited layout: one chunk per record (leading header chunk is
		// outside the container here, trailing separator chunk is empty).
		if len(recs) != doc.Records {
			t.Errorf("doc %d: %d records from wrapper, generator planted %d",
				idx, len(recs), doc.Records)
		}
		// A separator that fits splits exactly as SplitAt does.
		want, err := SplitAt(doc.HTML, w.Separator, tagtree.Limits{})
		if err != nil || len(want) != len(recs) {
			t.Fatalf("doc %d: SplitAt gave %d records (err %v), apply %d", idx, len(want), err, len(recs))
		}
		for i := range want {
			if want[i] != recs[i] {
				t.Errorf("doc %d record %d: apply %+v, SplitAt %+v", idx, i, recs[i], want[i])
			}
		}
	}
}

func TestApplySeparatorDetectsDrift(t *testing.T) {
	site := corpus.TrainingSites(corpus.Obituaries)[0] // hr-delimited
	w := learn(t, samplesFor(site, 3), corpus.Obituaries.Ontology())
	// The "redesigned" site now uses table rows: hr is gone.
	redesigned := corpus.TrainingSites(corpus.Obituaries)[4] // Seattle Times, wrapped
	_, err := ApplySeparator(context.Background(), redesigned.Generate(0).HTML, w.Separator, Options{})
	if !errors.Is(err, ErrDrift) {
		t.Errorf("err = %v, want ErrDrift", err)
	}
}

func TestLearnSeparatorDisagreement(t *testing.T) {
	// Half the "site" uses hr-delimited pages, half uses table rows: no
	// 75% majority.
	hrSite := corpus.TrainingSites(corpus.Obituaries)[0]
	trSite := corpus.TrainingSites(corpus.Obituaries)[4]
	samples := []string{
		hrSite.Generate(0).HTML, hrSite.Generate(1).HTML,
		trSite.Generate(0).HTML, trSite.Generate(1).HTML,
	}
	_, err := LearnSeparator(context.Background(), samples, Options{Ontology: corpus.Obituaries.Ontology()})
	if !errors.Is(err, ErrDisagreement) {
		t.Errorf("err = %v, want ErrDisagreement", err)
	}
}

func TestLearnSeparatorNoSamples(t *testing.T) {
	if _, err := LearnSeparator(context.Background(), nil, Options{}); !errors.Is(err, ErrNoSamples) {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestLearnSeparatorWithoutOntology(t *testing.T) {
	site := corpus.TestSites(corpus.CarAds)[2] // wrapped table rows
	w := learn(t, samplesFor(site, 4), nil)
	if w.Separator != "tr" && w.Separator != "td" {
		t.Errorf("separator = %q", w.Separator)
	}
	if w.Ontology != "" {
		t.Errorf("structural wrapper names ontology %q", w.Ontology)
	}
}

// TestLearnSeparatorTieBreak: an even vote goes to the tag name that sorts
// first, so the answer never depends on map order.
func TestLearnSeparatorTieBreak(t *testing.T) {
	hr := `<div><hr><b>A</b> x <b>one</b> more<hr><b>B</b> y <b>two</b> more<hr><b>C</b> z <b>three</b> more<hr></div>`
	br := `<div><br><i>A</i> x <i>one</i> more<br><i>B</i> y <i>two</i> more<br><i>C</i> z <i>three</i> more<br></div>`
	a, errA := Discover(hr, Options{})
	b, errB := Discover(br, Options{})
	if errA != nil || errB != nil || a.Separator == b.Separator {
		t.Fatalf("samples must disagree: %v %v", errA, errB)
	}
	want := fmt.Sprintf("best tag %q won only 50%% of 2 samples", min(a.Separator, b.Separator))
	for _, samples := range [][]string{{hr, br}, {br, hr}} {
		_, err := LearnSeparator(context.Background(), samples, Options{})
		if !errors.Is(err, ErrDisagreement) || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want a disagreement ending %q", err, want)
		}
	}
}

// TestLearnSeparatorHonorsOptions: every sample runs under the caller's
// limits and context, and the failing sample is named.
func TestLearnSeparatorHonorsOptions(t *testing.T) {
	site := corpus.TrainingSites(corpus.Obituaries)[0]
	samples := samplesFor(site, 3)
	bg := context.Background()
	for _, c := range []struct {
		lim  tagtree.Limits
		want error
	}{
		{tagtree.Limits{MaxBytes: 1 << 10}, htmlparse.ErrTooLarge},
		{tagtree.Limits{MaxDepth: 3}, tagtree.ErrTooDeep},
		{tagtree.Limits{MaxNodes: 16}, tagtree.ErrTooManyNodes},
	} {
		_, err := LearnSeparator(bg, samples, Options{Limits: c.lim})
		if !errors.Is(err, c.want) || !strings.HasPrefix(err.Error(), "wrapper: sample 0: ") {
			t.Errorf("limits %+v: err = %v, want %v on sample 0", c.lim, err, c.want)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := LearnSeparator(ctx, samples, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: err = %v", err)
	}
	// A pooled arena is reused sample after sample.
	arena := tagtree.AcquireArena()
	defer arena.Release()
	got, err := LearnSeparator(bg, samples, Options{Arena: arena})
	if want := learn(t, samples, nil); err != nil || got != want {
		t.Errorf("on an arena: %+v (err %v), want %+v", got, err, want)
	}
}

// TestApplySeparatorHonorsOptions: the applied page is parsed under the
// caller's limits, context and arena.
func TestApplySeparatorHonorsOptions(t *testing.T) {
	doc := corpus.TrainingSites(corpus.Obituaries)[0].Generate(10).HTML
	bg := context.Background()
	if _, err := ApplySeparator(bg, doc, "hr", Options{Limits: tagtree.Limits{MaxBytes: 1 << 10}}); !errors.Is(err, htmlparse.ErrTooLarge) {
		t.Errorf("oversized: err = %v", err)
	}
	if _, err := ApplySeparator(bg, doc, "hr", Options{Limits: tagtree.Limits{MaxDepth: 3}}); !errors.Is(err, tagtree.ErrTooDeep) {
		t.Errorf("deep: err = %v", err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := ApplySeparator(ctx, doc, "hr", Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: err = %v", err)
	}
	want, err := ApplySeparator(bg, doc, "hr", Options{})
	if err != nil {
		t.Fatal(err)
	}
	arena := tagtree.AcquireArena()
	defer arena.Release()
	got, err := ApplySeparator(bg, doc, "hr", Options{Arena: arena})
	if err != nil || len(got) != len(want) {
		t.Fatalf("on an arena: %d records (err %v), want %d", len(got), err, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d on an arena: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWrapperSaveLoadRoundTrip: a learned wrapper survives its saved form
// and still applies; the built-in ontology travels by name.
func TestWrapperSaveLoadRoundTrip(t *testing.T) {
	site := corpus.TrainingSites(corpus.Obituaries)[0]
	w := learn(t, samplesFor(site, 3), ontology.Builtin("obituary"))
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := wire.LoadWrapper(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != w {
		t.Errorf("round trip changed fields: %+v vs %+v", loaded, w)
	}
	if loaded.Ontology != "obituary" {
		t.Errorf("built-in ontology saved as %q", loaded.Ontology)
	}
	recs, err := ApplySeparator(context.Background(), site.Generate(9).HTML, loaded.Separator, Options{})
	if err != nil || len(recs) == 0 {
		t.Errorf("loaded wrapper apply: %d records, err %v", len(recs), err)
	}
}

// TestLearnSeparatorWithCustomOntology: a custom DSL ontology is not saved
// (only built-ins travel by name), and the wrapper applies without it.
func TestLearnSeparatorWithCustomOntology(t *testing.T) {
	site := corpus.TrainingSites(corpus.Obituaries)[0]
	custom := ontology.MustParse(ontology.ObituarySrc)
	w := learn(t, samplesFor(site, 3), custom)
	if w.Ontology != "" {
		t.Errorf("custom ontology saved as %q", w.Ontology)
	}
	want := learn(t, samplesFor(site, 3), ontology.Builtin("obituary"))
	want.Ontology = ""
	if w != want {
		t.Errorf("custom copy of the obituary ontology learned %+v, built-in %+v", w, want)
	}
	if _, err := ApplySeparator(context.Background(), site.Generate(9).HTML, w.Separator, Options{}); err != nil {
		t.Errorf("apply: %v", err)
	}
}
