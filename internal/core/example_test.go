package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ontology"
)

// Learn a wrapper from sample pages of one site, then apply it to a new
// page without re-running the heuristics.
func ExampleLearnSeparator() {
	page := func(names ...string) string {
		html := "<html><body><div>"
		for _, n := range names {
			html += "<hr><b>" + n + "</b> died on March 3, 1998. " +
				"Funeral services at <b>MEMORIAL CHAPEL</b>. Interment follows. "
		}
		return html + "<hr></div></body></html>"
	}
	samples := []string{
		page("Ada Alpha", "Bo Beta", "Cy Gamma"),
		page("Di Delta", "Ed Epsilon", "Fay Zeta"),
	}
	ctx := context.Background()
	w, err := core.LearnSeparator(ctx, samples, core.Options{Ontology: ontology.Builtin("obituary")})
	if err != nil {
		panic(err)
	}
	fmt.Println("separator:", w.Separator, "agreement:", w.Agreement)

	records, err := core.ApplySeparator(ctx, page("Gus Eta", "Hal Theta"), w.Separator, core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("records:", len(records))
	// Output:
	// separator: hr agreement: 1
	// records: 2
}
