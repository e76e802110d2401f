package heuristic

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
)

// TestNewContextTimedStages checks every construction stage is reported,
// in order, with its descriptive attributes.
func TestNewContextTimedStages(t *testing.T) {
	tree := tagtree.Parse(paperdoc.Figure2)
	var stages []Stage
	ctx := NewContextTimed(tree, tagtree.DefaultCandidateThreshold,
		ontology.Builtin("obituary"), func(s Stage) { stages = append(stages, s) })

	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3 (fanout, candidates, recognize)", len(stages))
	}
	for i, want := range []string{"fanout", "candidates", "recognize"} {
		if stages[i].Name != want {
			t.Errorf("stage %d = %s, want %s", i, stages[i].Name, want)
		}
		if stages[i].Duration < 0 {
			t.Errorf("stage %s has negative duration", want)
		}
	}
	attrs := func(s Stage) map[string]string {
		m := map[string]string{}
		a := s.Attrs()
		for i := 0; i+1 < len(a); i += 2 {
			m[a[i]] = a[i+1]
		}
		return m
	}
	if got := attrs(stages[0]); got["tag"] != ctx.Subtree.Name {
		t.Errorf("fanout tag attr = %q, want %q", got["tag"], ctx.Subtree.Name)
	}
	if got := attrs(stages[1]); got["count"] != "3" {
		t.Errorf("candidates count attr = %q, want 3 (hr, b, br)", got["count"])
	}
}

// TestNewContextTimedNoOntology: without an ontology the recognize stage
// must not run or be reported.
func TestNewContextTimedNoOntology(t *testing.T) {
	tree := tagtree.Parse(paperdoc.Figure2)
	var names []string
	NewContextTimed(tree, tagtree.DefaultCandidateThreshold, nil,
		func(s Stage) { names = append(names, s.Name) })
	if len(names) != 2 || names[0] != "fanout" || names[1] != "candidates" {
		t.Errorf("stages = %v, want [fanout candidates]", names)
	}
}

// TestNewContextTimedMatchesUntimed: observation must not change the result.
func TestNewContextTimedMatchesUntimed(t *testing.T) {
	tree := tagtree.Parse(paperdoc.Figure2)
	plain := NewContext(tree, tagtree.DefaultCandidateThreshold, ontology.Builtin("obituary"))
	timed := NewContextTimed(tree, tagtree.DefaultCandidateThreshold,
		ontology.Builtin("obituary"), func(Stage) {})
	if len(plain.Candidates) != len(timed.Candidates) || plain.Subtree.Name != timed.Subtree.Name {
		t.Errorf("timed context differs: %+v vs %+v", plain.Candidates, timed.Candidates)
	}
}
