// Command boundary discovers the record separator of an HTML document and
// optionally dumps the separated records.
//
// Usage:
//
//	boundary [-ontology obituary] [-records] [-explain] [-xml] [-check] [-trace] [file.html]
//
// With no file argument the document is read from standard input. The
// -ontology flag enables the OM heuristic with one of the built-in
// application ontologies (obituary, carad, jobad, course) or a path to an
// ontology DSL file. -xml parses the input with XML semantics. -check runs
// the document classifier first and refuses to discover boundaries on
// pages that do not hold multiple records (the paper's input assumption).
// -trace appends the run's trace ID (the same ID a service request would
// publish to /debug/traces), a table of heuristics that declined or failed
// with their reasons, and a per-stage timing table (parse, fan-out search,
// candidate extraction, each heuristic, certainty combination) showing where
// the pipeline spends its time on the document. -explain includes each
// heuristic's certainty factor (or decline reason) and the combination
// arithmetic behind the compound score.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// The discovery entry points are package variables so tests can exercise the
// degraded-exit path without arranging a real all-heuristic failure.
var (
	discoverHTML = core.Discover
	discoverXML  = core.DiscoverXML
)

func main() {
	ontName := flag.String("ontology", "", "built-in ontology name or DSL file path (enables OM)")
	records := flag.Bool("records", false, "print the separated records' cleaned text")
	explain := flag.Bool("explain", true, "print per-heuristic rankings and compound scores")
	xml := flag.Bool("xml", false, "parse the input as XML instead of HTML")
	check := flag.Bool("check", false, "classify the document first; refuse non-multi-record pages")
	trace := flag.Bool("trace", false, "print a per-stage timing table for the discovery run")
	flag.Parse()

	if err := run(os.Stdout, *ontName, *records, *explain, *xml, *check, *trace, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "boundary:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, ontName string, records, explain, xml, check, trace bool, args []string) error {
	doc, err := readDocument(args)
	if err != nil {
		return err
	}
	_, ont, err := ontology.Load(ontName)
	if err != nil {
		return err
	}

	if check {
		if ont == nil {
			return fmt.Errorf("-check needs -ontology (classification is content-based)")
		}
		cls, err := classify.Classify(context.Background(), doc, ont, tagtree.Limits{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "classification: %s (estimate %.1f records, fan-out %d)\n",
			cls.Kind, cls.Estimate, cls.FanOut)
		if cls.Kind != classify.MultipleRecords {
			return fmt.Errorf("document does not hold multiple records; boundary discovery does not apply")
		}
	}

	discover := discoverHTML
	if xml {
		discover = discoverXML
	}
	opts := core.Options{Ontology: ont}
	if trace {
		opts.Trace = obs.NewTrace()
	}
	res, err := discover(doc, opts)
	if err != nil {
		return err
	}
	// A degraded result that still names a separator is a usable (if
	// lower-confidence) answer; a degraded result with no top tag is not —
	// exiting 0 there would let scripts consume an empty separator as
	// success.
	if res.Degraded && len(res.TopTags) == 0 {
		return fmt.Errorf("discovery degraded with no usable separator (failed heuristics: %s)",
			strings.Join(res.FailedHeuristics, ", "))
	}
	if explain {
		fmt.Fprint(out, core.ExplainVerbose(res, opts))
	} else {
		fmt.Fprintf(out, "separator: <%s>\n", res.Separator)
	}
	if trace {
		fmt.Fprintf(out, "\ntrace id: %s\n", opts.Trace.ID())
		if len(res.HeuristicReasons) > 0 {
			fmt.Fprintln(out, "declined/failed heuristics:")
			for _, name := range []string{"OM", "RP", "SD", "IT", "HT"} {
				if reason, ok := res.HeuristicReasons[name]; ok {
					fmt.Fprintf(out, "  %-3s %s\n", name, reason)
				}
			}
		}
		fmt.Fprintf(out, "\nstage timings:\n%s", opts.Trace.Table())
	}
	if records {
		for i, rec := range core.Split(doc, res) {
			fmt.Fprintf(out, "\n--- record %d [%d:%d] ---\n%s\n", i+1, rec.Start, rec.End, rec.Text)
		}
	}
	return nil
}

func readDocument(args []string) (string, error) {
	if len(args) == 0 {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(args[0])
	return string(data), err
}
