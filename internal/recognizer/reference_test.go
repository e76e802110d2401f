package recognizer

// The recognizer's original scan — every rule's unanchored pattern run with
// FindAllStringIndex over every chunk its prefilter admits — kept as the
// test oracle for the candidate-driven scan in recognizer.go. The
// differential tests below require the two to produce identical tables.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// referenceRecognize builds the Data-Record Table with the reference scan.
func referenceRecognize(ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node) *Table {
	var entries []Entry
	for _, ev := range tree.SubtreeEvents(n) {
		if ev.Kind == tagtree.EventText {
			entries = referenceScanChunk(entries, ont.Rules(), ev)
		}
	}
	t := &Table{Entries: entries}
	t.buildCounts()
	return t
}

// referenceScanChunk appends one chunk's matches to entries, locally
// sorted.
func referenceScanChunk(entries []Entry, rules []ontology.Rule, ev tagtree.Event) []Entry {
	chunkStart := len(entries)
	for _, r := range rules {
		if !referencePrefilterHit(r.Compiled.Prefilter, ev.Text) {
			continue
		}
		for _, m := range r.Pattern.FindAllStringIndex(ev.Text, -1) {
			entries = append(entries, Entry{
				ObjectSet: r.ObjectSet,
				Kind:      r.Kind,
				String:    ev.Text[m[0]:m[1]],
				Pos:       ev.Pos + m[0],
				End:       ev.Pos + m[1],
			})
		}
	}
	sortEntries(entries[chunkStart:])
	return entries
}

// referencePrefilterHit reports whether the chunk can possibly match a rule
// with the given necessary-literal set. An empty set means "always
// possible".
func referencePrefilterHit(lits []string, text string) bool {
	if len(lits) == 0 {
		return true
	}
	for _, l := range lits {
		if strings.Contains(text, l) {
			return true
		}
	}
	return false
}

// requireSameEntries fails unless got and want hold identical entries in
// identical order.
func requireSameEntries(t *testing.T, label string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// corpusDocuments returns the 220-document corpus: every domain's training
// documents plus the test documents.
func corpusDocuments() []*corpus.Document {
	var docs []*corpus.Document
	for _, d := range corpus.AllDomains {
		docs = append(docs, corpus.TrainingDocuments(d)...)
	}
	return append(docs, corpus.TestDocuments()...)
}

// TestRecognizeMatchesReferenceCorpus: over all 220 corpus documents, each
// with its domain's ontology, every text chunk of the document yields the
// reference table.
func TestRecognizeMatchesReferenceCorpus(t *testing.T) {
	docs := corpusDocuments()
	if len(docs) != 220 {
		t.Fatalf("corpus has %d documents, want 220", len(docs))
	}
	total := 0
	for i, d := range docs {
		ont := d.Site.Domain.Ontology()
		tree := tagtree.Parse(d.HTML)
		got := Recognize(ont, tree, tree.Root)
		want := referenceRecognize(ont, tree, tree.Root)
		requireSameEntries(t, fmt.Sprintf("document %d (%s)", i, d.Site.Domain), got.Entries, want.Entries)
		total += len(want.Entries)
	}
	if total == 0 {
		t.Fatal("corpus produced no entries: the comparison is vacuous")
	}
}

// TestRecognizeLargeDocumentMatchesReference: a 400-record document, far
// past any generated page, yields the reference table.
func TestRecognizeLargeDocumentMatchesReference(t *testing.T) {
	ont := ontology.Builtin("obituary")
	var sb strings.Builder
	sb.WriteString("<div>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "<b>Brian Fielding Frost %d</b> passed away on March %d, 1998, age %d. "+
			"Funeral services at the chapel. Interment at City Cemetery. Some filler text padding the chunk out. ",
			i, i%28+1, 20+i%70)
		sb.WriteString("<hr>")
	}
	sb.WriteString("</div>")
	tree := tagtree.Parse(sb.String())
	got := Recognize(ont, tree, tree.Root)
	want := referenceRecognize(ont, tree, tree.Root)
	if len(want.Entries) < 400*5 {
		t.Fatalf("reference found only %d entries", len(want.Entries))
	}
	requireSameEntries(t, "400-record document", got.Entries, want.Entries)
}

// fuzzOntology wraps one pattern in an ontology whose rules share it three
// ways — a keyword and a constant rule of one set, a constant rule of
// another — so shared match lists and same-position ties are exercised.
func fuzzOntology(re *regexp.Regexp) *ontology.Ontology {
	pats := []*regexp.Regexp{re}
	return &ontology.Ontology{
		Name: "Fuzz", Entity: "Fuzz",
		ObjectSets: []*ontology.ObjectSet{
			{Name: "B", Frame: ontology.DataFrame{KeywordPatterns: pats, ValuePatterns: pats}},
			{Name: "A", Frame: ontology.DataFrame{ValuePatterns: pats}},
		},
	}
}

// FuzzRecognizeVsReference: for any pattern regexp.Compile accepts — case
// folding, (?s), ^, $, \b, \B, patterns matching the empty string,
// non-ASCII literals — and any text, including invalid UTF-8, the
// candidate-driven chunk scan reports exactly the reference entries.
func FuzzRecognizeVsReference(f *testing.F) {
	texts := []string{
		"Brian Fielding Frost passed away on March 3, 1998, age 84. Interment, City Cemetery.",
		"Asking $4,500 for a 1994 Ford, call (801) 555-1234; 123K miles, A/C.",
		"Send resume to hr@example.com, Job #A1234, C and COBOL, C++, UNIX_2.",
		"CS 142 Introduction to Programming, 3 credit hours, MWF, Room 101",
		"foo_bar foo\nbar \xff\xfe é café Kelvin K ſ � x\x80y xé世\xe4\xb8 a@b.c a@\xffb",
		"xfoo foo_foo afoo 21994 1994 xC C+ 1999_",
		"",
	}
	patterns := []string{
		`{Month}`, `k`, `(?i)k`, `(?i)straße`, `\bfoo`, `\Bfoo`, `^a`, `(?m)^\w+`, `a$`, `(?m)\w$`,
		`a*`, `x*\bfoo`, `\b\w+`, `\b.`, `\b(?:C|\+)`, `\x{FFFD}`, `[^a]`, `.`, `(?s).+`, `é+`,
		`\Qa)`, `(?U)[0-9]+`, `\b19[789][0-9]\b`, `(?:x+y|x)`, `\$[0-9][0-9,]*`, `\B`, `$`, `\b`,
		`x[^\x{10000}-\x{10FFFF}]`, `(?:é|a)b.`, `.{2}\b`, `[a-z]+@[a-z]+\b`, `e\x{FFFD}?`,
	}
	for _, name := range ontology.BuiltinNames() {
		for _, r := range ontology.Builtin(name).Rules() {
			patterns = append(patterns, r.Pattern.String())
		}
	}
	for _, p := range patterns {
		for _, text := range texts {
			f.Add(p, text)
		}
	}
	f.Fuzz(func(t *testing.T, pattern, text string) {
		if len(pattern) > 256 || len(text) > 4096 {
			return
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		rules := fuzzOntology(re).Rules()
		ev := tagtree.Event{Kind: tagtree.EventText, Text: text, Pos: 7}
		scr := new(scanScratch)
		scr.size(rules)
		got := scanChunk(nil, rules, ev, scr)
		want := referenceScanChunk(nil, rules, ev)
		requireSameEntries(t, fmt.Sprintf("pattern %q on %q", pattern, text), got, want)
	})
}

// TestRecognizeThroughputGate enforces the candidate-driven scan's speedup
// as a test, beside the byte path's TestCorpusThroughputGate: over the
// corpus — each document's highest-fan-out subtree under its domain's
// ontology, as discovery scans it — Recognize must run at least 2× the
// reference scan measured in the same run. Idle 2-CPU hosts measure about
// 4.5×; best-of-trials absorbs scheduling noise on shared runners.
func TestRecognizeThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark ratio check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("throughput floors are meaningless under -race instrumentation")
	}
	type subtree struct {
		ont  *ontology.Ontology
		tree *tagtree.Tree
		n    *tagtree.Node
	}
	var work []subtree
	for _, d := range corpusDocuments() {
		tree := tagtree.Parse(d.HTML)
		work = append(work, subtree{d.Site.Domain.Ontology(), tree, tree.HighestFanOut()})
	}
	const (
		minRatio = 2.0
		trials   = 3
	)
	best := 0.0
	for trial := 0; trial < trials; trial++ {
		candidate := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range work {
					Recognize(w.ont, w.tree, w.n)
				}
			}
		})
		reference := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range work {
					referenceRecognize(w.ont, w.tree, w.n)
				}
			}
		})
		ratio := float64(reference.NsPerOp()) / float64(candidate.NsPerOp())
		t.Logf("trial %d: candidate scan %.1f ms, reference %.1f ms, ratio %.2fx",
			trial, float64(candidate.NsPerOp())/1e6, float64(reference.NsPerOp())/1e6, ratio)
		if ratio >= minRatio {
			return
		}
		best = max(best, ratio)
	}
	t.Errorf("candidate scan best of %d trials: %.2fx the reference scan, want >= %.1fx", trials, best, minRatio)
}

// TestRecognizeBudgetFallbackMatchesReference: a chunk dense with
// candidates whose runs reach far ahead exhausts the anchored-run budget
// (each candidate after the first match hands its whole ~2 KB run to the
// anchored program), and the restarted unanchored search still yields the
// reference entries.
func TestRecognizeBudgetFallbackMatchesReference(t *testing.T) {
	rules := fuzzOntology(regexp.MustCompile(`a[a ]*b`)).Rules()
	// The leading "ab" matches before the budget runs out, so the restart
	// must also drop the matches already found.
	ev := tagtree.Event{Kind: tagtree.EventText, Text: "ab " + strings.Repeat("a ", 1000) + "c ab a b", Pos: 3}
	scr := new(scanScratch)
	scr.size(rules)
	want := referenceScanChunk(nil, rules, ev)
	if len(want) != 9 {
		t.Fatalf("reference found %d entries, want 9", len(want))
	}
	requireSameEntries(t, "budget fallback", scanChunk(nil, rules, ev, scr), want)
}
