package eval

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/certainty"
	"repro/internal/corpus"
)

// TestRegistrationsShape pins the registry the leaderboard tracks: at least
// the paper's compound, five ablations, and the wrapper fast path — with
// unique names and working constructors.
func TestRegistrationsShape(t *testing.T) {
	regs := Registrations()
	if len(regs) < 5 {
		t.Fatalf("only %d registered extractors, want at least 5", len(regs))
	}
	seen := map[string]bool{}
	for _, reg := range regs {
		if reg.Name == "" || reg.New == nil {
			t.Fatalf("malformed registration %+v", reg)
		}
		if seen[reg.Name] {
			t.Fatalf("duplicate registration %q", reg.Name)
		}
		seen[reg.Name] = true
		if got := reg.New().Name(); got != reg.Name {
			t.Errorf("registration %q constructs extractor named %q", reg.Name, got)
		}
	}
	for _, want := range []string{"ORSIH", "OM-only", "RP-only", "SD-only", "IT-only", "HT-only", "wrapper"} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}

// TestLeaderboardTestCorpus checks the substance of the leaderboard on the
// 20-document test corpus: the compound is perfect (the paper's Table 9
// result restated as record-level F1), the wrapper fast path serves the
// identical answer warm, and the HT-only baseline (the most frequent
// candidate tag, no other evidence) does not beat the compound.
func TestLeaderboardTestCorpus(t *testing.T) {
	report := RunLeaderboard(corpus.TestDocuments(), QualityOptions{})
	if report.Documents != 20 {
		t.Fatalf("report covers %d documents, want 20", report.Documents)
	}
	if report.SlackBytes != DefaultBoundarySlack {
		t.Fatalf("slack %d, want default %d", report.SlackBytes, DefaultBoundarySlack)
	}

	orsih, ok := report.Row("ORSIH")
	if !ok {
		t.Fatal("no ORSIH row")
	}
	if orsih.Errors != 0 || orsih.Exact.F1 != 1 || orsih.Forgiving.F1 != 1 || orsih.MacroF1Exact != 1 {
		t.Errorf("ORSIH should be perfect on the test corpus, got %+v", orsih)
	}

	wrapper, ok := report.Row("wrapper")
	if !ok {
		t.Fatal("no wrapper row")
	}
	if wrapper.Exact != orsih.Exact || wrapper.Forgiving != orsih.Forgiving {
		t.Errorf("wrapper fast path diverged from the pipeline it memoizes:\nwrapper %+v\nORSIH   %+v",
			wrapper, orsih)
	}

	baseline, ok := report.Row("HT-only")
	if !ok {
		t.Fatal("no HT-only row")
	}
	if baseline.Forgiving.F1 > orsih.Forgiving.F1 {
		t.Errorf("HT-only baseline (F1 %v) beats the compound (F1 %v)",
			baseline.Forgiving.F1, orsih.Forgiving.F1)
	}

	// Leaderboard order: descending forgiving F1 with deterministic ties.
	for i := 1; i < len(report.Extractors); i++ {
		a, b := report.Extractors[i-1], report.Extractors[i]
		if a.Forgiving.F1 < b.Forgiving.F1 {
			t.Errorf("rows %d/%d out of order: %s (%v) before %s (%v)",
				i-1, i, a.Name, a.Forgiving.F1, b.Name, b.Forgiving.F1)
		}
	}
}

// TestWrapperExtractorServesWarmAnswers confirms the wrapper row actually
// measures the fast path: every document is learned once (a store) and then
// answered from the store (a hit).
func TestWrapperExtractorServesWarmAnswers(t *testing.T) {
	ext := newWrapperExtractor().(*wrapperExtractor)
	docs := corpus.TestDocuments()[:5]
	for _, doc := range docs {
		if _, err := ext.Extract(doc, doc.Site.Domain.Ontology()); err != nil {
			t.Fatalf("%s/%d: %v", doc.Site.Name, doc.Index, err)
		}
	}
	stats := ext.store.Stats()
	if int(stats.Stores) != len(docs) || int(stats.Hits) != len(docs) {
		t.Errorf("store saw %v stores and %v hits for %d documents; want one of each per document",
			stats.Stores, stats.Hits, len(docs))
	}
}

// TestLeaderboardDeterministic: two full runs — and runs at any worker
// count — produce identical reports, down to the serialized bytes. This is
// the property the committed QUALITY_<n>.json baseline and golden files
// depend on.
func TestLeaderboardDeterministic(t *testing.T) {
	docs := corpus.TestDocuments()
	a := RunLeaderboard(docs, QualityOptions{})
	b := RunLeaderboard(docs, QualityOptions{})
	serial := RunLeaderboard(docs, QualityOptions{Workers: 1})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, serial) {
		t.Errorf("parallel and serial runs disagree:\n%+v\n%+v", a, serial)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("serialized reports differ between identical runs")
	}
	if FormatLeaderboard(a) != FormatLeaderboard(b) {
		t.Error("formatted leaderboards differ between identical runs")
	}
}

// TestLeaderboardDocOrderInvariance: feeding the corpus in a different
// document order changes nothing — aggregation is order-blind.
func TestLeaderboardDocOrderInvariance(t *testing.T) {
	docs := corpus.TestDocuments()
	reversed := make([]*corpus.Document, len(docs))
	for i, d := range docs {
		reversed[len(docs)-1-i] = d
	}
	a := RunLeaderboard(docs, QualityOptions{})
	b := RunLeaderboard(reversed, QualityOptions{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("leaderboard depends on document order:\n%+v\n%+v", a, b)
	}
}

// TestLeaderboardCustomRegistry: QualityOptions.Extractors overrides the
// registry — the hook for scoring an experimental method without touching
// the tracked leaderboard.
func TestLeaderboardCustomRegistry(t *testing.T) {
	report := RunLeaderboard(corpus.TestDocuments()[:3], QualityOptions{
		Extractors: []Registration{{
			Name: "RP-custom",
			New: func() Extractor {
				return &discoverExtractor{name: "RP-custom", combo: certainty.Combination{certainty.RP}}
			},
		}},
	})
	if len(report.Extractors) != 1 || report.Extractors[0].Name != "RP-custom" {
		t.Fatalf("custom registry not honored: %+v", report.Extractors)
	}
}

func TestFormatLeaderboard(t *testing.T) {
	report := RunLeaderboard(corpus.TestDocuments()[:2], QualityOptions{})
	table := FormatLeaderboard(report)
	for _, want := range []string{"leaderboard", "rank", "ORSIH", "HT-only", "wrapper"} {
		if !strings.Contains(table, want) {
			t.Errorf("table is missing %q:\n%s", want, table)
		}
	}
}
