package recognizer

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
)

func obituarySetup(t *testing.T) (*ontology.Ontology, *tagtree.Tree, *tagtree.Node) {
	t.Helper()
	ont := ontology.Builtin("obituary")
	tree := tagtree.Parse(paperdoc.Figure2)
	return ont, tree, tree.HighestFanOut()
}

func TestRecognizeFigure2DeathDateKeywords(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	// One "died on" + two "passed away": exactly one per record.
	if got := table.CountKeyword("DeathDate"); got != 3 {
		t.Errorf("DeathDate keywords = %d, want 3", got)
	}
	if got := table.CountKeyword("FuneralService"); got != 3 {
		t.Errorf("FuneralService keywords = %d, want 3", got)
	}
	if got := table.CountKeyword("Interment"); got != 3 {
		t.Errorf("Interment keywords = %d, want 3", got)
	}
}

func TestEstimateRecordCountFigure2(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	est, ok := EstimateRecordCount(ont, table)
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if est != 3.0 {
		t.Errorf("estimated record count = %v, want 3.0 (the document has 3 obituaries)", est)
	}
}

func TestEntriesSortedByPosition(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	if table.Len() == 0 {
		t.Fatal("empty table")
	}
	for i := 1; i < len(table.Entries); i++ {
		if table.Entries[i].Pos < table.Entries[i-1].Pos {
			t.Fatalf("entries out of order at %d: %+v then %+v", i, table.Entries[i-1], table.Entries[i])
		}
	}
}

func TestEntryDescriptor(t *testing.T) {
	e := Entry{ObjectSet: "DeathDate", Kind: ontology.KeywordRule}
	if got := e.Descriptor(); got != "DeathDate/keyword" {
		t.Errorf("descriptor = %q", got)
	}
	e.Kind = ontology.ConstantRule
	if got := e.Descriptor(); got != "DeathDate/constant" {
		t.Errorf("descriptor = %q", got)
	}
}

func TestSlicePartitionsByPosition(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	// Partition at the separator (hr) occurrences; each inter-hr span must
	// contain exactly one DeathDate keyword.
	positions := tagtree.Occurrences(tree, hf, "hr")
	if len(positions) != 4 {
		t.Fatalf("hr occurrences = %d, want 4", len(positions))
	}
	for i := 0; i+1 < len(positions); i++ {
		got := 0
		for _, e := range table.Slice(positions[i], positions[i+1]) {
			if e.ObjectSet == "DeathDate" && e.Kind == ontology.KeywordRule {
				got++
			}
		}
		if got != 1 {
			t.Errorf("record %d: DeathDate keywords = %d, want 1", i+1, got)
		}
	}
}

func TestSliceEmptyRange(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	if got := table.Slice(5, 5); len(got) != 0 {
		t.Errorf("empty range returned %d entries", len(got))
	}
	// An inverted range is empty too, also on a small hand-built table.
	small := &Table{Entries: []Entry{{Pos: 1}, {Pos: 4}, {Pos: 9}}}
	if got := small.Slice(8, 2); len(got) != 0 {
		t.Errorf("inverted range returned %d entries", len(got))
	}
	if got := table.Slice(len(paperdoc.Figure2), 0); len(got) != 0 {
		t.Errorf("inverted range returned %d entries", len(got))
	}
}

func TestRecognizeDoesNotMatchAcrossTags(t *testing.T) {
	// "died" and "on" split by a tag must not produce a DeathDate keyword.
	ont := ontology.Builtin("obituary")
	tree := tagtree.Parse("<div><p>died </p><p>on March 3</p></div>")
	table := Recognize(ont, tree, tree.Root)
	if got := table.CountKeyword("DeathDate"); got != 0 {
		t.Errorf("keyword matched across tag boundary: %d", got)
	}
}

func TestRecognizeOutsideSubtreeExcluded(t *testing.T) {
	ont := ontology.Builtin("obituary")
	doc := "<body>passed away outside<div><b>x</b><b>passed away inside</b></div></body>"
	tree := tagtree.Parse(doc)
	div := tree.Root.Find("div")
	table := Recognize(ont, tree, div)
	if got := table.CountKeyword("DeathDate"); got != 1 {
		t.Errorf("DeathDate keywords in div = %d, want 1 (outside text must be excluded)", got)
	}
}

func TestEstimateRequiresThreeFields(t *testing.T) {
	src := "ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}"
	ont := ontology.MustParse(src)
	tree := tagtree.Parse("<div>k k k</div>")
	table := Recognize(ont, tree, tree.Root)
	if _, ok := EstimateRecordCount(ont, table); ok {
		t.Error("estimate should be unavailable with < 3 record-identifying fields")
	}
}

// TestCountsPrecomputed: Recognize fills the per-(objectSet, kind) count
// map, and the O(1) lookups agree with a linear scan of the entries.
func TestCountsPrecomputed(t *testing.T) {
	ont, tree, hf := obituarySetup(t)
	table := Recognize(ont, tree, hf)
	if table.counts == nil {
		t.Fatal("Recognize left counts nil")
	}
	linear := func(set string, kind ontology.RuleKind) int {
		n := 0
		for _, e := range table.Entries {
			if e.ObjectSet == set && e.Kind == kind {
				n++
			}
		}
		return n
	}
	for _, s := range ont.ObjectSets {
		if got, want := table.CountKeyword(s.Name), linear(s.Name, ontology.KeywordRule); got != want {
			t.Errorf("CountKeyword(%s) = %d, want %d", s.Name, got, want)
		}
		if got, want := table.CountConstant(s.Name), linear(s.Name, ontology.ConstantRule); got != want {
			t.Errorf("CountConstant(%s) = %d, want %d", s.Name, got, want)
		}
	}
}

// TestCountFallbackOnHandBuiltTable: a table assembled directly (no counts
// map) still counts correctly via the linear fallback.
func TestCountFallbackOnHandBuiltTable(t *testing.T) {
	table := &Table{Entries: []Entry{
		{ObjectSet: "A", Kind: ontology.KeywordRule},
		{ObjectSet: "A", Kind: ontology.KeywordRule},
		{ObjectSet: "A", Kind: ontology.ConstantRule},
		{ObjectSet: "B", Kind: ontology.ConstantRule},
	}}
	if got := table.CountKeyword("A"); got != 2 {
		t.Errorf("CountKeyword(A) = %d, want 2", got)
	}
	if got := table.CountConstant("B"); got != 1 {
		t.Errorf("CountConstant(B) = %d, want 1", got)
	}
	if got := table.CountKeyword("C"); got != 0 {
		t.Errorf("CountKeyword(C) = %d, want 0", got)
	}
}

func TestFieldCountSelectsIndicatorKind(t *testing.T) {
	src := `
ontology X
entity X
object K : one-to-one {
    keyword ` + "`kw`" + `
    value ` + "`val`" + `
}
object V : one-to-one {
    type v
    value ` + "`val`" + `
}
object W : one-to-one {
    keyword ` + "`w`" + `
}
`
	ont := ontology.MustParse(src)
	tree := tagtree.Parse("<div>kw val val w</div>")
	table := Recognize(ont, tree, tree.Root)
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		t.Fatal("no fields")
	}
	counts := map[string]int{}
	for _, f := range fields {
		counts[f.Set.Name] = FieldCount(table, f)
	}
	if counts["K"] != 1 { // keyword-indicated: counts "kw" only
		t.Errorf("K count = %d, want 1", counts["K"])
	}
	if counts["V"] != 2 { // value-identified: counts both "val"s
		t.Errorf("V count = %d, want 2", counts["V"])
	}
}
