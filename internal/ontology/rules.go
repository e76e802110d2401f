package ontology

import "regexp"

// RuleKind distinguishes keyword rules from constant (value) rules.
type RuleKind int

// Rule kinds.
const (
	// KeywordRule matches a context keyword indicating a field's presence.
	KeywordRule RuleKind = iota
	// ConstantRule matches a constant value of a field.
	ConstantRule
)

// String returns "keyword" or "constant".
func (k RuleKind) String() string {
	if k == KeywordRule {
		return "keyword"
	}
	return "constant"
}

// Rule is one constant/keyword matching rule generated by the ontology
// parser (the "Constant/Keyword Matching Rules" box of Figure 1).
type Rule struct {
	// ObjectSet is the object set this rule recognizes.
	ObjectSet string
	Kind      RuleKind
	Pattern   *regexp.Regexp
	// Compiled is the pattern's candidate-scan form, including its
	// prefilter literals, shared by every rule of the ontology with the
	// same pattern source.
	Compiled *CompiledPattern
}

// Descriptor is the Data-Record-Table descriptor for matches of this rule,
// e.g. "DeathDate/keyword".
func (r Rule) Descriptor() string { return r.ObjectSet + "/" + r.Kind.String() }

// Rules generates the constant/keyword matching rules for the ontology, in
// object-set declaration order with keyword rules before constant rules for
// each set. The rule set — including each distinct pattern's compiled
// candidate-scan data — is computed once per ontology and shared by every
// caller, so the recognizer's hot path pays no per-document set-up cost.
// Callers must not mutate the returned slice.
func (o *Ontology) Rules() []Rule {
	o.rulesOnce.Do(func() {
		compiled := map[string]*CompiledPattern{}
		add := func(set string, kind RuleKind, p *regexp.Regexp) {
			c := compiled[p.String()]
			if c == nil {
				c = compilePattern(p, len(compiled))
				compiled[p.String()] = c
			}
			o.rules = append(o.rules, Rule{ObjectSet: set, Kind: kind, Pattern: p, Compiled: c})
		}
		for _, s := range o.ObjectSets {
			for _, p := range s.Frame.KeywordPatterns {
				add(s.Name, KeywordRule, p)
			}
			for _, p := range s.Frame.ValuePatterns {
				add(s.Name, ConstantRule, p)
			}
		}
	})
	return o.rules
}
