package eval

// The method-generic half of the harness: an Extractor is anything that
// turns a document into record boundaries. The full ORSIH pipeline, each
// single-heuristic ablation, and the learned-wrapper fast path are
// registered below; every method is scored on the same corpus with the same
// structural-match metric, so the leaderboard (cmd/evalrun,
// QUALITY_<n>.json) compares them on one footing — and any future method
// (nested records, modern-page heuristics, an external baseline) joins by
// adding a Registration.

import (
	"repro/internal/certainty"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// Extractor is one record-boundary extraction method under evaluation.
// Implementations must be deterministic: the same document and ontology
// always yield the same spans, in ascending order.
type Extractor interface {
	// Name is the method's leaderboard identity.
	Name() string
	// Extract returns the predicted record boundaries for one document.
	// An error counts the document against the method (scored as an empty
	// prediction), never aborts the evaluation.
	Extract(doc *corpus.Document, ont *ontology.Ontology) ([]tagtree.Span, error)
}

// Registration couples an extractor's identity with a constructor. New is
// called once per evaluation run, so stateful methods (the wrapper fast
// path's store) start cold and runs stay independent.
type Registration struct {
	Name        string
	Description string
	New         func() Extractor
}

// Registrations lists every method the leaderboard tracks, in registry
// order: the paper's compound, the five single-heuristic ablations (HT-only,
// the most frequent candidate tag, doubles as the naive baseline), and the
// learned-wrapper fast path.
func Registrations() []Registration {
	regs := []Registration{{
		Name:        "ORSIH",
		Description: "full five-heuristic compound (the paper's pipeline)",
		New:         func() Extractor { return &discoverExtractor{name: "ORSIH"} },
	}}
	for _, h := range certainty.AllHeuristics {
		regs = append(regs, Registration{
			Name:        h + "-only",
			Description: "single-heuristic ablation: " + h + " alone picks the separator",
			New: func() Extractor {
				return &discoverExtractor{name: h + "-only", combo: certainty.Combination{h}}
			},
		})
	}
	return append(regs,
		Registration{
			Name:        "wrapper",
			Description: "learned-wrapper fast path: answers served from the template store after one cold learn per page shape",
			New:         newWrapperExtractor,
		},
	)
}

// discoverExtractor runs the discovery pipeline under a heuristic
// combination: the full compound (nil combination) or a single-heuristic
// ablation. When the lone heuristic declines, every candidate scores a
// compound CF of zero and the alphabetically-first candidate wins — the
// honest cost of relying on one source of evidence.
type discoverExtractor struct {
	name  string
	combo certainty.Combination
}

func (e *discoverExtractor) Name() string { return e.name }

func (e *discoverExtractor) Extract(doc *corpus.Document, ont *ontology.Ontology) ([]tagtree.Span, error) {
	// Per-call arena: the leaderboard runs one Extractor instance across
	// worker goroutines, so the arena cannot live on the extractor itself.
	arena := tagtree.AcquireArena()
	defer arena.Release()
	res, err := core.Discover(doc.HTML, core.Options{Ontology: ont, Combination: e.combo, Arena: arena})
	if err != nil {
		return nil, err
	}
	return res.Boundaries(doc.HTML), nil
}

// wrapperExtractor scores the template fast path on its warm answers: each
// document is discovered cold first (learning the wrapper) and then again
// warm, and the warm result — served from the store for every non-degraded
// shape — is what gets scored. Spot-checks are disabled so every warm
// lookup actually exercises the fast path.
type wrapperExtractor struct {
	store   *template.Store
	metrics *obs.Registry
}

func newWrapperExtractor() Extractor {
	metrics := obs.NewRegistry()
	store, err := template.Open(template.Config{Metrics: metrics})
	if err != nil {
		// Memory-only stores cannot fail to open; keep the constructor
		// signature simple for the registry.
		panic("eval: opening in-memory template store: " + err.Error())
	}
	return &wrapperExtractor{store: store, metrics: metrics}
}

func (e *wrapperExtractor) Name() string { return "wrapper" }

func (e *wrapperExtractor) Extract(doc *corpus.Document, ont *ontology.Ontology) ([]tagtree.Span, error) {
	arena := tagtree.AcquireArena()
	defer arena.Release()
	opts := core.Options{
		Ontology:     ont,
		Templates:    e.store,
		TemplateSalt: template.Salt("html", string(doc.Site.Domain), nil),
		Arena:        arena,
	}
	if _, err := core.Discover(doc.HTML, opts); err != nil { // cold: learn
		return nil, err
	}
	res, err := core.Discover(doc.HTML, opts) // warm: served from the store
	if err != nil {
		return nil, err
	}
	return res.Boundaries(doc.HTML), nil
}
