// Command wrapper learns, saves, and applies per-site wrappers — the
// production workflow: discover boundaries once on sample pages, then split
// new pages from the same site ~40× faster, with drift detection.
//
// Usage:
//
//	wrapper learn -ontology obituary -out site.wrapper page1.html page2.html ...
//	wrapper apply -wrapper site.wrapper page.html
//	wrapper show  -wrapper site.wrapper
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "wrapper: need a subcommand: learn, apply, or show")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "learn":
		err = learnCmd(os.Stdout, os.Args[2:])
	case "apply":
		err = applyCmd(os.Stdout, os.Args[2:])
	case "show":
		err = showCmd(os.Stdout, os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrapper:", err)
		os.Exit(1)
	}
}

func learnCmd(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("learn", flag.ContinueOnError)
	ontName := fs.String("ontology", "", "built-in ontology name or DSL file path (enables OM)")
	outPath := fs.String("out", "", "file to save the learned wrapper to (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("learn needs at least one sample page")
	}
	samples := make([]string, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		samples = append(samples, string(data))
	}
	_, ont, err := ontology.Load(*ontName)
	if err != nil {
		return err
	}
	w, err := core.LearnSeparator(context.Background(), samples, core.Options{Ontology: ont})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, w)
	dst := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	return w.Save(dst)
}

func applyCmd(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("apply", flag.ContinueOnError)
	wrapperPath := fs.String("wrapper", "", "saved wrapper file (required)")
	ontName := fs.String("ontology", "", "built-in name or DSL file; validated, not needed to apply")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *wrapperPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("apply needs -wrapper and exactly one page")
	}
	if _, _, err := ontology.Load(*ontName); err != nil {
		return err
	}
	w, err := loadWrapper(*wrapperPath)
	if err != nil {
		return err
	}
	page, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	records, err := core.ApplySeparator(context.Background(), string(page), w.Separator, core.Options{})
	if err != nil {
		return err
	}
	for i, rec := range records {
		fmt.Fprintf(out, "--- record %d [%d:%d] ---\n%s\n", i+1, rec.Start, rec.End, rec.Text)
	}
	return nil
}

func showCmd(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	wrapperPath := fs.String("wrapper", "", "saved wrapper file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *wrapperPath == "" {
		return fmt.Errorf("show needs -wrapper")
	}
	w, err := loadWrapper(*wrapperPath)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, w)
	return nil
}

// loadWrapper reads a wrapper file saved by learn.
func loadWrapper(path string) (wire.Wrapper, error) {
	f, err := os.Open(path)
	if err != nil {
		return wire.Wrapper{}, err
	}
	defer f.Close()
	return wire.LoadWrapper(f)
}
