package ontology

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPrefilterLiterals(t *testing.T) {
	cases := []struct {
		pattern string
		want    []string // nil = no usable prefilter
	}{
		{"died on|passed away", []string{"died on", "passed away"}},
		{"[Ff]uneral services", []string{"uneral services"}},
		{"Interment|Burial|Entombment|[Cc]remation", []string{"Interment", "Burial", "Entombment", "remation"}},
		// Concat picks the sub-expression with the longest weakest literal.
		{`born .{0,24}\bin [A-Z][a-z]+`, []string{"born "}},
		// Bare character classes have no required literal.
		{"[0-9]{1,3}", nil},
		{`[A-Z][a-z]+(?: [A-Z]\.?| [A-Z][a-z]+)? [A-Z][a-z]+`, nil},
		// A case-folded literal cannot be matched case-sensitively.
		{"(?i)asking", nil},
		// Min-length floor: a single space matches nearly everything.
		{`\$[0-9]+`, nil},
		// Repeats with min >= 1 still require their body.
		{"(?:abc){2,5}", []string{"abc"}},
		// Star makes the body optional: no requirement.
		{"(?:abc)*x?", nil},
	}
	for _, c := range cases {
		got := prefilterLiterals(c.pattern)
		sort.Strings(got)
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("prefilterLiterals(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

// TestPrefilterIsNecessary: for every built-in ontology rule with a
// prefilter, any text the pattern matches must contain one of the literals —
// otherwise the recognizer would silently drop entries.
func TestPrefilterIsNecessary(t *testing.T) {
	samples := []string{
		"died on March 3, 1998", "passed away Friday", "Funeral services",
		"Services will be held", "A memorial service", "Interment, City Cemetery",
		"Brian Fielding Frost", "age 84", "was born on January 1, 1912",
		"born and raised in Provo", "LARKIN MORTUARY", "Friends may call",
		"Wasatch Lawn Cemetery", "services Saturday", "survived by his wife",
		"married", "church", "Asking $4,500", "1994 Ford", "(801) 555-1234",
		"automatic transmission, air conditioning", "excellent condition",
		"123K miles", "red", "Salary DOE", "BS degree required",
		"contact hr@example.com", "3 credit hours", "MWF 9:00am", "Room 101",
	}
	for _, name := range BuiltinNames() {
		ont := Builtin(name)
		for _, r := range ont.Rules() {
			if r.Compiled.Prefilter == nil {
				continue
			}
			for _, s := range samples {
				for _, m := range r.Pattern.FindAllString(s, -1) {
					hit := false
					for _, l := range r.Compiled.Prefilter {
						if strings.Contains(s, l) {
							hit = true
							break
						}
					}
					if !hit {
						t.Errorf("%s rule %s: match %q in %q escapes prefilter %v",
							name, r.Descriptor(), m, s, r.Compiled.Prefilter)
					}
				}
			}
		}
	}
}
