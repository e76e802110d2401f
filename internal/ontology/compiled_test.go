package ontology

import (
	"reflect"
	"regexp"
	"testing"
)

func TestCompilePatternAnalysis(t *testing.T) {
	cases := []struct {
		pattern   string
		anchored  bool
		start     string // every start byte, when anchored and ASCII
		wordStart bool
		prefixes  []string
		required  string
		maxLen    int
		spaces    int
	}{
		{pattern: "died on|passed away", anchored: true, start: "dp",
			prefixes: []string{"died on", "passed away"}, maxLen: 11, spaces: 1},
		{pattern: `\b19[789][0-9]\b`, anchored: true, start: "1", wordStart: true,
			prefixes: []string{"197", "198", "199"}, maxLen: 4},
		{pattern: `[A-Z][a-z]+(?: [A-Z]\.?| [A-Z][a-z]+)? [A-Z][a-z]+`, anchored: true,
			start: "ABCDEFGHIJKLMNOPQRSTUVWXYZ", maxLen: -1, spaces: 2},
		{pattern: `born .{0,24}\bin`, anchored: true, start: "b", prefixes: []string{"born "},
			maxLen: 5 + 24*4 + 2, spaces: 1 + 24},
		{pattern: `[A-Za-z ]+`, anchored: true, start: " ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
			maxLen: -1, spaces: -1},
		{pattern: `[a-z]+@[a-z]+\.[a-z]{2,6}`, anchored: true, start: "abcdefghijklmnopqrstuvwxyz",
			required: ".@", maxLen: -1},
		{pattern: `\(?[0-9]{3}\)?[ -][0-9]{3}-[0-9]{4}`, anchored: true, start: "(0123456789",
			required: "-", maxLen: 14, spaces: 1},
		{pattern: `[0-9]{1,3}`, anchored: true, start: "0123456789", maxLen: 3},
		// Unprovable: nullable, look-behind assertions, a leading \b before
		// a possible non-word byte, or a \b on only some start paths.
		{pattern: `a*`},
		{pattern: `x?`},
		{pattern: `^a`},
		{pattern: `(?m)^a`},
		{pattern: `\Ba`},
		{pattern: `a\Bb`},
		{pattern: `\b(?:C|\+)`},
		{pattern: `\bfoo|bar`},
		{pattern: `x*\bfoo`},
		{pattern: `\Qa)`},
	}
	for _, c := range cases {
		got := compilePattern(regexp.MustCompile(c.pattern), 0)
		if (got.Anchored != nil) != c.anchored {
			t.Errorf("%q: anchored = %v, want %v", c.pattern, got.Anchored != nil, c.anchored)
			continue
		}
		if !c.anchored {
			continue
		}
		var start []byte
		for b, ok := range got.Start {
			if ok {
				start = append(start, byte(b))
			}
		}
		if string(start) != c.start || !got.StartASCII {
			t.Errorf("%q: start = %q (ASCII %v), want %q", c.pattern, start, got.StartASCII, c.start)
		}
		if got.WordStart != c.wordStart {
			t.Errorf("%q: wordStart = %v, want %v", c.pattern, got.WordStart, c.wordStart)
		}
		if !reflect.DeepEqual(got.Prefixes, c.prefixes) {
			t.Errorf("%q: prefixes = %q, want %q", c.pattern, got.Prefixes, c.prefixes)
		}
		if string(got.Required) != c.required {
			t.Errorf("%q: required = %q, want %q", c.pattern, got.Required, c.required)
		}
		if got.MaxLen != c.maxLen || got.MaxSpaces != c.spaces {
			t.Errorf("%q: maxLen, maxSpaces = %d, %d, want %d, %d", c.pattern, got.MaxLen, got.MaxSpaces, c.maxLen, c.spaces)
		}
	}
}

// TestCompilePatternNonASCII: a start byte or alphabet byte outside ASCII
// is marked conservatively, so the scan decodes runes and does not bound
// the anchored run by an alphabet.
func TestCompilePatternNonASCII(t *testing.T) {
	for _, p := range []string{`é+`, `(?i)k`, `[^a]b`, `.x`, `\x{FFFD}`} {
		c := compilePattern(regexp.MustCompile(p), 0)
		if c.Anchored == nil {
			t.Errorf("%q: not anchored", p)
			continue
		}
		if c.StartASCII || !c.Start[0x80] || !c.Start[0xff] {
			t.Errorf("%q: non-ASCII start bytes not marked", p)
		}
		if c.Alphabet != nil {
			t.Errorf("%q: alphabet set for a non-ASCII pattern", p)
		}
	}
	if c := compilePattern(regexp.MustCompile(`(?i)k`), 0); !c.Start['k'] || !c.Start['K'] {
		t.Error("(?i)k: case-folded start bytes missing")
	}
}

// TestRulesShareCompiledPatterns: rules with the same pattern source share
// one CompiledPattern, and distinct sources are numbered densely.
func TestRulesShareCompiledPatterns(t *testing.T) {
	var dates []*CompiledPattern
	seen := map[*CompiledPattern]bool{}
	for _, r := range Builtin("obituary").Rules() {
		if r.Compiled == nil || r.Compiled.Pattern.String() != r.Pattern.String() {
			t.Fatalf("%s: compiled pattern missing or mismatched", r.Descriptor())
		}
		seen[r.Compiled] = true
		if r.Kind == ConstantRule && r.Compiled.Pattern.String() == Builtin("obituary").ObjectSet("DeathDate").Frame.ValuePatterns[0].String() {
			dates = append(dates, r.Compiled)
		}
	}
	if len(dates) != 3 || dates[0] != dates[1] || dates[1] != dates[2] {
		t.Errorf("the three date rules should share one compiled pattern, got %v", dates)
	}
	for c := range seen {
		if c.Index < 0 || c.Index >= len(seen) {
			t.Errorf("pattern %q has index %d outside [0, %d)", c.Pattern, c.Index, len(seen))
		}
	}
}
