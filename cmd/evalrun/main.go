// Command evalrun runs the method-generic evaluation harness: every
// registered extractor (the ORSIH compound, each single-heuristic ablation,
// and the learned-wrapper fast path) is scored on the synthetic corpus with
// structural-match precision/recall/F1, and the result is printed as a
// leaderboard table and optionally archived as a machine-readable
// QUALITY_<n>.json report.
//
// Usage:
//
//	evalrun                              # leaderboard over the full 220-doc corpus
//	evalrun -docs test                   # the 20-document test corpus only
//	evalrun -out QUALITY_1.json          # archive the machine-readable report
//	evalrun -compare QUALITY_1.json      # regression gate against a committed baseline
//
// -compare switches to gate mode (the quality counterpart of
// `benchjson -compare`): the fresh run is diffed against the baseline and
// the command fails when any extractor's F1 — exact or forgiving — dropped
// by more than -tolerance absolute points. The corpus, the extractors, and
// the metric are all deterministic, so reports are byte-identical across
// runs and the gate never flakes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/corpus"
	"repro/internal/eval"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evalrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evalrun", flag.ContinueOnError)
	docsFlag := fs.String("docs", "all", "corpus to score: all|training|test")
	slack := fs.Int("slack", eval.DefaultBoundarySlack,
		"forgiving-variant boundary tolerance in bytes")
	workers := fs.Int("workers", 0, "evaluation concurrency (0 = GOMAXPROCS)")
	out := fs.String("out", "",
		`write the QUALITY json report to this file ("-" for stdout)`)
	baseline := fs.String("compare", "",
		"baseline QUALITY_<n>.json; fail when any extractor's F1 drops beyond -tolerance")
	tolerance := fs.Float64("tolerance", eval.DefaultQualityTolerance,
		"allowed absolute F1 drop against the -compare baseline (0.02 = two points)")
	table := fs.Bool("table", true, "print the leaderboard table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	docs, err := selectDocs(*docsFlag)
	if err != nil {
		return err
	}

	// Load the baseline before the (much more expensive) evaluation run so
	// a bad path or corrupt file fails fast.
	var base *eval.QualityReport
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		base = &eval.QualityReport{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("baseline %s: %w", *baseline, err)
		}
	}

	report := eval.RunLeaderboard(docs, eval.QualityOptions{
		Slack:   *slack,
		Workers: *workers,
	})
	if base != nil {
		return eval.CompareQuality(base, report, *tolerance, stdout)
	}

	if *table {
		fmt.Fprint(stdout, eval.FormatLeaderboard(report))
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out == "-" {
			_, err = stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return nil
}

// selectDocs resolves the -docs flag: the full corpus (200 training + 20
// test), the training half, or the test half.
func selectDocs(which string) ([]*corpus.Document, error) {
	var docs []*corpus.Document
	switch which {
	case "all":
		for _, d := range corpus.AllDomains {
			docs = append(docs, corpus.TrainingDocuments(d)...)
		}
		docs = append(docs, corpus.TestDocuments()...)
	case "training":
		for _, d := range corpus.AllDomains {
			docs = append(docs, corpus.TrainingDocuments(d)...)
		}
	case "test":
		docs = corpus.TestDocuments()
	default:
		return nil, fmt.Errorf("unknown -docs %q (want all, training, or test)", which)
	}
	return docs, nil
}
