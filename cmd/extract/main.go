// Command extract runs the paper's complete Figure 1 pipeline on an HTML
// document: record-boundary discovery, constant/keyword recognition,
// keyword-constant correlation, and database population.
//
// Usage:
//
//	extract -ontology obituary [-format csv|json|summary] [file.html]
//
// With no file argument the document is read from standard input. CSV
// output prints each table preceded by a "# table <name>" line; JSON output
// is a single object keyed by table name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dbgen"
	"repro/internal/ontology"
	"repro/internal/reldb"
)

func main() {
	ontName := flag.String("ontology", "", "built-in ontology name or DSL file path (required)")
	format := flag.String("format", "summary", "output format: csv, json, or summary")
	flag.Parse()

	if err := run(os.Stdout, *ontName, *format, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "extract:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, ontName, format string, args []string) error {
	if ontName == "" {
		return fmt.Errorf("-ontology is required (one of %v or a DSL file)", ontology.BuiltinNames())
	}
	_, ont, err := ontology.Load(ontName)
	if err != nil {
		return err
	}

	doc, err := readDocument(args)
	if err != nil {
		return err
	}
	res, err := core.Discover(doc, core.Options{Ontology: ont})
	if err != nil {
		return err
	}
	db, err := dbgen.Populate(ont, res)
	if err != nil {
		return err
	}
	return write(out, db, res, format)
}

func write(out io.Writer, db *reldb.DB, res *core.Result, format string) error {
	switch format {
	case "summary":
		fmt.Fprintf(out, "separator: <%s>\n", res.Separator)
		fmt.Fprintln(out, "tables:", db.Summary())
		return nil
	case "csv":
		for _, name := range db.TableNames() {
			fmt.Fprintf(out, "# table %s\n", name)
			if err := db.Table(name).WriteCSV(out); err != nil {
				return err
			}
		}
		return nil
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(db)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func readDocument(args []string) (string, error) {
	if len(args) == 0 {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(args[0])
	return string(data), err
}
