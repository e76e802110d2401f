package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/wire"
)

// A site wrapper (§1: "build wrappers for Web documents") is discovery run
// once over sample pages of one site, whose agreed separator then splits
// further pages without the heuristics; its saved form is wire.Wrapper.

// MinAgreement is the training-sample agreement LearnSeparator requires
// before it trusts a separator for the whole site.
const MinAgreement = 0.75

var (
	// ErrNoSamples is returned by LearnSeparator with no samples.
	ErrNoSamples = errors.New("wrapper: no sample documents")
	// ErrDisagreement is returned when the samples do not agree on a
	// separator: the "site" probably mixes layouts.
	ErrDisagreement = errors.New("wrapper: sample documents disagree on the separator")
	// ErrDrift is returned by ApplySeparator when the document no longer
	// matches the wrapper (a site redesign).
	ErrDrift = errors.New("wrapper: document does not match the learned wrapper")
)

// LearnSeparator runs discovery on each sample document under ctx and opts
// (its limits, sinks, arena and template store apply to every sample) and
// returns the wrapper for the separator at least MinAgreement of them
// agree on. Ties in the vote go to the tag name that sorts first. The
// wrapper's Confidence is the separator's mean compound certainty factor
// over the samples that chose it; its Ontology names opts.Ontology when
// that is a built-in one.
func LearnSeparator(ctx context.Context, samples []string, opts Options) (wire.Wrapper, error) {
	if len(samples) == 0 {
		return wire.Wrapper{}, ErrNoSamples
	}
	votes := map[string]int{}
	cfSum := map[string]float64{}
	for i, doc := range samples {
		res, err := DiscoverContext(ctx, doc, opts)
		if err != nil {
			return wire.Wrapper{}, fmt.Errorf("wrapper: sample %d: %w", i, err)
		}
		votes[res.Separator]++
		cfSum[res.Separator] += res.Scores[0].CF
	}
	best := ""
	for tag, n := range votes {
		if best == "" || n > votes[best] || n == votes[best] && tag < best {
			best = tag
		}
	}
	agreement := float64(votes[best]) / float64(len(samples))
	if agreement < MinAgreement {
		return wire.Wrapper{}, fmt.Errorf("%w: best tag %q won only %.0f%% of %d samples",
			ErrDisagreement, best, agreement*100, len(samples))
	}
	return wire.Wrapper{
		Version:    wire.WrapperVersion,
		Separator:  best,
		Ontology:   ontology.BuiltinName(opts.Ontology),
		Confidence: cfSum[best] / float64(votes[best]),
		Agreement:  agreement,
		SampleSize: len(samples),
	}, nil
}

// ApplySeparator splits a document from a wrapped site at its learned
// separator with no heuristic voting. It parses as SplitAt does, under
// ctx, opts.Limits, opts.Arena and opts.Faults, and returns ErrDrift when
// the separator is no longer a candidate tag (opts' candidate threshold,
// the paper's 10% rule by default) of the highest-fan-out subtree: the
// signal that the site changed its layout. With an arena, the records are
// valid only until its next parse or Release.
func ApplySeparator(ctx context.Context, doc, separator string, opts Options) ([]Record, error) {
	res, err := locate(ctx, doc, separator, opts)
	if err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(tagtree.Candidates(res.Subtree, opts.threshold()),
		func(c tagtree.Candidate) bool { return c.Name == separator }) {
		return nil, fmt.Errorf("%w: %q is not a candidate separator anymore", ErrDrift, separator)
	}
	return Split(doc, res), nil
}

// locate is the parse-and-locate step SplitAt and ApplySeparator share: the
// document's tree, its highest-fan-out subtree, and the given separator,
// as a Result Split can use.
func locate(ctx context.Context, doc, separator string, opts Options) (*Result, error) {
	tree, err := tagtree.ParseArenaContext(ctx, doc, opts.Limits, opts.Arena, opts.Faults)
	if err != nil {
		return nil, err
	}
	return &Result{Separator: separator, Subtree: tree.HighestFanOut(), Tree: tree}, nil
}
