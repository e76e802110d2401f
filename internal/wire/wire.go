// Package wire declares the service's JSON contract once: the request
// envelope every discover surface accepts (POST /v1/discover, each batch
// document, each bulk/stream NDJSON line) and the discovery answer every
// surface emits (HTTP bodies, result-cache journal lines, wrapper-store
// entries, bulk outcome lines). It is the answer the paper's Record
// Extractor hands downstream (Figure 1, §5.3): the separator, the candidate
// tags, each heuristic's ranking and the compound certainty factors.
//
// DecodeRequest, ReadRequest and DecodeTaskLine decode the envelope in one
// pass, with encoding/json's exact results (decode.go). A learned site
// wrapper's saved form, with its corruption and version rules, is declared
// here too (wrapper.go).
//
// The package is a leaf: it imports nothing from this module, so every
// layer — core, template, pipeline, httpapi, cluster — can share it
// without an import cycle. core.Result.Answer is the one conversion from a
// discovery result into this form.
package wire

import (
	"errors"
	"slices"
)

// Request is the shared request envelope. Discover takes exactly one of
// HTML and XML (see Document); records, extract and classify are HTML-only.
type Request struct {
	// HTML is the document to process; XML is its XML-mode alternative.
	HTML string `json:"html,omitempty"`
	XML  string `json:"xml,omitempty"`
	// Ontology is a built-in name ("obituary", "carad", "jobad", "course")
	// or full DSL source (detected by the presence of a newline).
	Ontology string `json:"ontology,omitempty"`
	// SeparatorList optionally overrides IT's identifiable-separator list.
	SeparatorList []string `json:"separator_list,omitempty"`
}

// errDocument breaks the envelope's one structural rule, worded as every
// surface reports it.
var errDocument = errors.New("exactly one of html or xml is required")

// Document returns the request's parse mode ("html" or "xml") and document,
// or an error unless exactly one of HTML and XML is set.
func (r *Request) Document() (mode, doc string, err error) {
	switch {
	case (r.HTML == "") == (r.XML == ""):
		return "", "", errDocument
	case r.XML != "":
		return "xml", r.XML, nil
	default:
		return "html", r.HTML, nil
	}
}

// Answer is one document's discovery answer.
type Answer struct {
	// Separator is the consensus record-separator tag; TopTags lists every
	// tag tied at the highest compound certainty factor.
	Separator string   `json:"separator"`
	TopTags   []string `json:"top_tags"`
	// Scores are all candidates with compound certainty factors, best
	// first.
	Scores []Score `json:"scores"`
	// Rankings holds each answering heuristic's ranking. It encodes as an
	// object even when no heuristic ranked (a single candidate is the
	// separator outright).
	Rankings map[string][]Rank `json:"rankings"`
	// Candidates are the candidate tags with counts, by descending count.
	Candidates []Candidate `json:"candidates"`
	// Subtree names the highest-fan-out subtree's root element.
	Subtree string `json:"subtree"`
	// Degraded and FailedHeuristics surface isolated heuristic failures:
	// the answer was computed from the surviving heuristics only.
	Degraded         bool     `json:"degraded,omitempty"`
	FailedHeuristics []string `json:"failed_heuristics,omitempty"`
}

// Score is one compound certainty factor.
type Score struct {
	Tag string  `json:"tag"`
	CF  float64 `json:"cf"`
}

// Rank is one row of a heuristic's ranking.
type Rank struct {
	Tag  string `json:"tag"`
	Rank int    `json:"rank"`
}

// Candidate is one candidate separator tag with its count in the subtree.
type Candidate struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

// Clone deep-copies the answer. The clone's Rankings is never nil, so an
// answer decoded from "rankings": null re-encodes as the object every
// surface emits.
func (a *Answer) Clone() Answer {
	c := *a
	c.TopTags = slices.Clone(a.TopTags)
	c.Scores = slices.Clone(a.Scores)
	c.Candidates = slices.Clone(a.Candidates)
	c.FailedHeuristics = slices.Clone(a.FailedHeuristics)
	c.Rankings = make(map[string][]Rank, len(a.Rankings))
	for name, rows := range a.Rankings {
		c.Rankings[name] = slices.Clone(rows)
	}
	return c
}

// ErrorBody is the uniform error response of every JSON endpoint.
type ErrorBody struct {
	Error string `json:"error"`
}
