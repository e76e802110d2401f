// Package repro is a Go reproduction of D.W. Embley, Y. Jiang, and
// Y.-K. Ng, "Record-Boundary Discovery in Web Documents" (SIGMOD 1999).
//
// Given an HTML page containing multiple records — obituaries, classified
// ads, course listings — the library discovers the HTML tag that separates
// the records by building a tag tree, locating the highest-fan-out subtree,
// and combining five independent heuristics (ontology matching, repeating-
// tag patterns, interval standard deviation, a known-separator list, and
// tag counts) with Stanford certainty theory.
//
// Quick start:
//
//	res, err := repro.Discover(html)
//	if err != nil { ... }
//	fmt.Println(res.Separator)           // e.g. "hr"
//	for _, rec := range repro.Split(html, res) {
//	    fmt.Println(rec.Text)            // one cleaned record per chunk
//	}
//
// Supplying an application ontology enables the OM heuristic and the full
// Figure 1 extraction pipeline:
//
//	ont := repro.BuiltinOntology("obituary")
//	res, _ := repro.DiscoverWithOntology(html, ont)
//	db, _ := repro.Extract(html, ont) // populated relational instance
//
// The facade re-exports the core types; the implementing packages live
// under internal/ (core, tagtree, heuristic, certainty, ontology,
// recognizer, dbgen, reldb, corpus, eval).
package repro

import (
	"context"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dbgen"
	"repro/internal/ontology"
	"repro/internal/reldb"
	"repro/internal/tagtree"
)

// Result is a record-boundary discovery outcome. See core.Result.
type Result = core.Result

// Record is one record-sized chunk of a document. See core.Record.
type Record = core.Record

// Options configure discovery; the zero value is the paper's published
// configuration (all five heuristics, Table 4 factors, 10% threshold).
type Options = core.Options

// Ontology is a parsed application ontology.
type Ontology = ontology.Ontology

// DB is a populated relational instance.
type DB = reldb.DB

// ErrNoCandidates is returned for documents with no candidate separator
// tags.
var ErrNoCandidates = core.ErrNoCandidates

// Discover runs the paper's Record-Boundary Discovery Algorithm (§5.3) on
// an HTML document with the default options and no ontology (the OM
// heuristic declines; the remaining four heuristics still vote).
func Discover(html string) (*Result, error) {
	return core.Discover(html, core.Options{})
}

// DiscoverWithOntology runs discovery with the OM heuristic enabled by the
// given application ontology.
func DiscoverWithOntology(html string, ont *Ontology) (*Result, error) {
	return core.Discover(html, core.Options{Ontology: ont})
}

// DiscoverOptions runs discovery with full control over heuristic
// combination, certainty factors, candidate threshold, and separator list.
func DiscoverOptions(html string, opts Options) (*Result, error) {
	return core.Discover(html, opts)
}

// Split partitions the document into record chunks at the discovered
// separator.
func Split(html string, res *Result) []Record {
	return core.Split(html, res)
}

// Explain renders a human-readable report of a discovery result in the
// paper's §5.3 worked-example format.
func Explain(res *Result) string {
	return core.Explain(res)
}

// Extract runs the complete Figure 1 pipeline: discover boundaries,
// recognize constants and keywords, correlate them into records, and
// populate the ontology's generated database scheme.
func Extract(html string, ont *Ontology) (*DB, error) {
	res, err := core.Discover(html, core.Options{Ontology: ont})
	if err != nil {
		return nil, err
	}
	return dbgen.Populate(ont, res)
}

// DiscoverXML runs discovery on an XML document (the paper's footnote 1
// generalization): case-sensitive element names, no HTML void or
// optional-end-tag rules. Supply Options.SeparatorList for the vocabulary's
// likely wrappers, since the default IT list is HTML-specific.
func DiscoverXML(xml string, opts Options) (*Result, error) {
	return core.DiscoverXML(xml, opts)
}

// Classification re-exports the document classifier (the paper's stated
// future work): decide whether a page has multiple records before running
// boundary discovery.
type Classification = classify.Result

// Document-kind values reported by Classify.
const (
	NoRecords       = classify.NoRecords
	SingleRecord    = classify.SingleRecord
	MultipleRecords = classify.MultipleRecords
)

// Classify reports whether the document satisfies the algorithm's input
// assumptions: multiple records (run Discover), a single record (skip
// discovery, treat the page as one record), or no records at all.
func Classify(html string, ont *Ontology) (*Classification, error) {
	return classify.Classify(context.Background(), html, ont, tagtree.Limits{})
}

// ParseOntology parses an application ontology from its DSL source. See
// the ontology package for the DSL grammar.
func ParseOntology(src string) (*Ontology, error) {
	return ontology.Parse(src)
}

// BuiltinOntology returns one of the four built-in application ontologies:
// "obituary", "carad", "jobad", or "course". It returns nil for unknown
// names.
func BuiltinOntology(name string) *Ontology {
	return ontology.Builtin(name)
}
