package ontology

import (
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CompiledPattern is the candidate-scan form of one distinct rule pattern,
// derived from its regexp/syntax tree once per ontology (see Rules). Rules
// that share a pattern source share one CompiledPattern, so a recognizer can
// compute that pattern's matches once per text chunk.
//
// When Anchored is non-nil the analysis has proven that the unanchored
// pattern's leftmost-first, non-overlapping matches (FindAllStringIndex) are
// exactly what this walk yields: step through the text one rune at a time
// (invalid UTF-8 bytes count as one-byte runes, as in package regexp); at a
// position p whose byte is in Start, whose text starts with one of Prefixes
// (when set), and — under WordStart — whose previous byte is not an ASCII
// word byte, run Anchored on text[p:]; on a match resume at its end,
// otherwise at the next rune. The anchored run may be cut to MaxLen+1 bytes
// (when MaxLen >= 0), to one byte past the (MaxSpaces+1)-th space at or
// after p (when MaxSpaces >= 0) and, with an Alphabet, to one byte past the
// run of Alphabet bytes starting at p: the extra byte lets a trailing \b
// or $ see what follows the match. When Anchored is nil the pattern falls outside
// what the analysis proves and Pattern.FindAllStringIndex must be used.
type CompiledPattern struct {
	// Index numbers the ontology's distinct patterns 0..n-1 in rule order.
	Index int
	// Pattern is the pattern as declared.
	Pattern *regexp.Regexp
	// Prefilter is a necessary-literal set: every match contains at least
	// one of these case-sensitive strings, so a text chunk containing none
	// of them cannot match and the regexp engine need not run. nil means
	// no useful set exists.
	Prefilter []string
	// Required lists single bytes every match contains. Only bytes rarer
	// than letters, digits and spaces are kept (see requiredBytes).
	Required []byte

	// Anchored is ^(?:pattern), or nil when the candidate walk is not
	// proven equivalent: the pattern can match the empty string, uses ^,
	// \A or \B, or mixes a leading \b with a possible non-word first byte.
	Anchored *regexp.Regexp
	// Start[b] reports whether a match can begin with byte b.
	Start [256]bool
	// StartASCII reports that every Start byte is ASCII. Every ASCII byte
	// begins a rune, so candidates can then be found byte by byte.
	StartASCII bool
	// WordStart reports that every match begins with \b followed by an
	// ASCII word byte; the \b holds at p exactly when p is 0 or text[p-1]
	// is not an ASCII word byte.
	WordStart bool
	// Prefixes, sorted, are literal strings one of which every match
	// starts with; nil when no small finite set is known.
	Prefixes []string
	// MaxLen bounds a match's length in bytes; -1 means unbounded.
	MaxLen int
	// MaxSpaces bounds how many ' ' bytes a match contains; -1 means
	// unbounded. In prose it cuts the anchored run of a pattern such as
	// `[A-Z][a-z]+ [A-Z][a-z]+`, which starts at every capital letter, to
	// a few words instead of the rest of the sentence.
	MaxSpaces int
	// Alphabet, when non-nil, holds every byte a match can contain; all of
	// them are ASCII. A match starting at p then lies inside the run of
	// Alphabet bytes that contains p, and that run must hold every
	// Required byte.
	Alphabet *[256]bool
}

// compilePattern derives the candidate-scan data for one pattern.
func compilePattern(re *regexp.Regexp, index int) *CompiledPattern {
	src := re.String()
	c := &CompiledPattern{Index: index, Pattern: re, Prefilter: prefilterLiterals(src), MaxLen: -1, MaxSpaces: -1}
	tree, err := syntax.Parse(src, syntax.Perl)
	if err != nil {
		return c
	}
	tree = tree.Simplify()
	c.Required = requiredBytes(tree)
	// \Q...\E quoting without its \E would swallow the closing parenthesis
	// of the anchored wrapper below.
	if strings.Contains(src, `\Q`) {
		return c
	}
	prog, err := syntax.Compile(tree)
	if err != nil || !c.analyzeStart(prog) {
		return c
	}
	anchored, err := regexp.Compile(`^(?:` + src + `)`)
	if err != nil {
		return c
	}
	c.Anchored = anchored
	c.Prefixes = literalPrefixes(tree)
	c.MaxLen = maxMatchLen(tree)
	c.MaxSpaces = maxSpaces(tree)
	c.Alphabet = alphabet(prog)
	return c
}

// alphabet returns the bytes the program's rune instructions accept, or nil
// when any of them accepts a non-ASCII rune.
func alphabet(prog *syntax.Prog) *[256]bool {
	set := new([256]bool)
	for i := range prog.Inst {
		switch prog.Inst[i].Op {
		case syntax.InstRune, syntax.InstRune1, syntax.InstRuneAny, syntax.InstRuneAnyNotNL:
			firstBytes(&prog.Inst[i], set)
		}
	}
	if !asciiOnly(set) {
		return nil
	}
	return set
}

// HasPrefix reports whether s starts with one of c.Prefixes (always true
// when c.Prefixes is nil).
func (c *CompiledPattern) HasPrefix(s string) bool {
	if c.Prefixes == nil {
		return true
	}
	if s == "" {
		return false
	}
	for i := sort.SearchStrings(c.Prefixes, s[:1]); i < len(c.Prefixes) && c.Prefixes[i][0] == s[0]; i++ {
		if strings.HasPrefix(s, c.Prefixes[i]) {
			return true
		}
	}
	return false
}

// IsWordByte reports whether b is an ASCII word byte [0-9A-Za-z_], the
// only bytes regexp's \b treats as word characters.
func IsWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// analyzeStart fills Start, StartASCII and WordStart from the program's
// zero-width closure at its entry, and reports whether the anchored walk is
// proven equivalent to the unanchored search.
func (c *CompiledPattern) analyzeStart(prog *syntax.Prog) bool {
	for _, in := range prog.Inst {
		if in.Op == syntax.InstEmptyWidth &&
			syntax.EmptyOp(in.Arg)&(syntax.EmptyBeginLine|syntax.EmptyBeginText|syntax.EmptyNoWordBoundary) != 0 {
			// These look behind the match start, which text[p:] hides.
			return false
		}
	}
	type state struct {
		pc uint32
		wb bool // a \b was crossed before any rune was consumed
	}
	seen := map[state]bool{}
	stack := []state{{uint32(prog.Start), false}}
	withWB, withoutWB := false, false
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		in := &prog.Inst[s.pc]
		switch in.Op {
		case syntax.InstAlt, syntax.InstAltMatch:
			stack = append(stack, state{in.Out, s.wb}, state{in.Arg, s.wb})
		case syntax.InstCapture, syntax.InstNop:
			stack = append(stack, state{in.Out, s.wb})
		case syntax.InstEmptyWidth:
			// End-of-text and end-of-line look ahead only, so they read
			// the same on text[p:]; a leading \b is checked by hand.
			wb := s.wb || syntax.EmptyOp(in.Arg)&syntax.EmptyWordBoundary != 0
			stack = append(stack, state{in.Out, wb})
		case syntax.InstMatch:
			return false // the pattern can match the empty string
		case syntax.InstFail:
		default:
			var first [256]bool
			firstBytes(in, &first)
			for b, ok := range first {
				if !ok {
					continue
				}
				if s.wb && !IsWordByte(byte(b)) {
					return false
				}
				c.Start[b] = true
			}
			if s.wb {
				withWB = true
			} else {
				withoutWB = true
			}
		}
	}
	if withWB && withoutWB {
		return false
	}
	c.WordStart = withWB
	c.StartASCII = asciiOnly(&c.Start)
	return true
}

// asciiOnly reports whether set holds no byte >= 0x80.
func asciiOnly(set *[256]bool) bool {
	for b := utf8.RuneSelf; b < 256; b++ {
		if set[b] {
			return false
		}
	}
	return true
}

// firstBytes marks the bytes a rune instruction's input can start with
// (for an ASCII rune, the byte it consumes). A non-ASCII rune
// conservatively marks every byte >= 0x80: that covers its UTF-8 lead byte
// and, for U+FFFD, the invalid bytes regexp decodes to it.
func firstBytes(in *syntax.Inst, set *[256]bool) {
	mark := func(lo, hi rune) {
		for r := lo; r <= hi && r < utf8.RuneSelf; r++ {
			set[r] = true
		}
		if hi >= utf8.RuneSelf {
			for b := utf8.RuneSelf; b < 256; b++ {
				set[b] = true
			}
		}
	}
	switch in.Op {
	case syntax.InstRuneAny:
		mark(0, unicode.MaxRune)
	case syntax.InstRuneAnyNotNL:
		mark(0, '\n'-1)
		mark('\n'+1, unicode.MaxRune)
	case syntax.InstRune1:
		mark(in.Rune[0], in.Rune[0])
	case syntax.InstRune:
		if len(in.Rune) == 1 {
			r0 := in.Rune[0]
			mark(r0, r0)
			if syntax.Flags(in.Arg)&syntax.FoldCase != 0 {
				for r := unicode.SimpleFold(r0); r != r0; r = unicode.SimpleFold(r) {
					mark(r, r)
				}
			}
			return
		}
		for i := 0; i+1 < len(in.Rune); i += 2 {
			mark(in.Rune[i], in.Rune[i+1])
		}
	}
}

// Limits on the literal-prefix set: past these the per-candidate check
// costs more than it saves.
const (
	maxPrefixes   = 32
	maxPrefixLen  = 16
	maxClassRunes = 8
)

// literalPrefixes returns the sorted literal strings one of which every
// match of re starts with, or nil when no small finite set of prefixes
// longer than one byte is known (one-byte prefixes add nothing to Start).
func literalPrefixes(re *syntax.Regexp) []string {
	set, _, ok := prefixSet(re)
	if !ok {
		return nil
	}
	long := false
	for _, s := range set {
		if s == "" {
			return nil
		}
		if len(s) > 1 {
			long = true
		}
	}
	if !long {
		return nil
	}
	sort.Strings(set)
	return set
}

// prefixSet computes a set of strings one of which every match of re starts
// with. exact means every match is exactly one of them. ok is false when no
// bounded set is known.
func prefixSet(re *syntax.Regexp) (set []string, exact, ok bool) {
	switch re.Op {
	case syntax.OpEmptyMatch, syntax.OpWordBoundary, syntax.OpNoWordBoundary,
		syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText:
		return []string{""}, true, true
	case syntax.OpLiteral:
		set = []string{""}
		for _, r := range re.Rune {
			alts, ok := runeStrings(r, re.Flags&syntax.FoldCase != 0)
			if !ok {
				return nil, false, false
			}
			if set, ok = cross(set, alts); !ok {
				return nil, false, false
			}
		}
		return set, true, true
	case syntax.OpCharClass:
		n := 0
		for i := 0; i+1 < len(re.Rune); i += 2 {
			n += int(re.Rune[i+1]-re.Rune[i]) + 1
			if n > maxClassRunes {
				return nil, false, false
			}
		}
		for i := 0; i+1 < len(re.Rune); i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				alts, ok := runeStrings(r, false)
				if !ok {
					return nil, false, false
				}
				set = append(set, alts...)
			}
		}
		return set, true, len(set) > 0
	case syntax.OpCapture:
		return prefixSet(re.Sub[0])
	case syntax.OpPlus:
		set, _, ok = prefixSet(re.Sub[0])
		return set, false, ok
	case syntax.OpRepeat:
		if re.Min < 1 {
			return nil, false, false
		}
		set, exact, ok = prefixSet(re.Sub[0])
		return set, exact && re.Min == 1 && re.Max == 1, ok
	case syntax.OpAlternate:
		exact = true
		for _, sub := range re.Sub {
			s, e, ok := prefixSet(sub)
			if !ok {
				return nil, false, false
			}
			set, exact = append(set, s...), exact && e
		}
		if len(set) > maxPrefixes {
			return nil, false, false
		}
		return dedup(set), exact, true
	case syntax.OpConcat:
		set, exact = []string{""}, true
		for _, sub := range re.Sub {
			s, e, ok := prefixSet(sub)
			if !ok {
				return set, false, true
			}
			next, ok := cross(set, s)
			if !ok {
				return set, false, true
			}
			set = next
			if !e {
				return set, false, true
			}
		}
		return set, exact, true
	}
	return nil, false, false
}

// runeStrings returns the UTF-8 spellings input must use to match rune r
// (its case-fold orbit under fold). ok is false for U+FFFD, which also
// matches invalid bytes, and for runes that have no UTF-8 spelling.
func runeStrings(r rune, fold bool) ([]string, bool) {
	if r == utf8.RuneError || !utf8.ValidRune(r) {
		return nil, false
	}
	out := []string{string(r)}
	if fold {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			out = append(out, string(f))
		}
	}
	return out, true
}

// cross returns every a+b, truncated to maxPrefixLen bytes and
// deduplicated; ok is false when the product exceeds maxPrefixes.
func cross(as, bs []string) ([]string, bool) {
	if len(as)*len(bs) > maxPrefixes {
		return nil, false
	}
	out := make([]string, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			s := a + b
			if len(s) > maxPrefixLen {
				s = s[:maxPrefixLen]
			}
			out = append(out, s)
		}
	}
	return dedup(out), true
}

func dedup(set []string) []string {
	sort.Strings(set)
	out := set[:0]
	for i, s := range set {
		if i == 0 || s != set[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// maxRequired caps the required-byte checks per pattern.
const maxRequired = 2

// requiredBytes returns up to maxRequired bytes that every match of re
// contains. Letters, digits and spaces occur in nearly every text chunk, so
// only other bytes ('@', '-', '$', ...) are worth a chunk-level check.
func requiredBytes(re *syntax.Regexp) []byte {
	var out []byte
	for b, ok := range mustContain(re) {
		if ok && !IsWordByte(byte(b)) && b != ' ' && len(out) < maxRequired {
			out = append(out, byte(b))
		}
	}
	return out
}

// mustContain computes the set of bytes every match of re contains.
func mustContain(re *syntax.Regexp) (set [256]bool) {
	addRune := func(r rune) {
		if r == utf8.RuneError || !utf8.ValidRune(r) {
			return // U+FFFD also matches invalid bytes
		}
		var buf [utf8.UTFMax]byte
		for _, b := range buf[:utf8.EncodeRune(buf[:], r)] {
			set[b] = true
		}
	}
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			if re.Flags&syntax.FoldCase == 0 || unicode.SimpleFold(r) == r {
				addRune(r)
			}
		}
	case syntax.OpCharClass:
		if len(re.Rune) == 2 && re.Rune[0] == re.Rune[1] {
			addRune(re.Rune[0])
		}
	case syntax.OpCapture, syntax.OpPlus:
		return mustContain(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return mustContain(re.Sub[0])
		}
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			s := mustContain(sub)
			for b := range set {
				set[b] = set[b] || s[b]
			}
		}
	case syntax.OpAlternate:
		for i, sub := range re.Sub {
			s := mustContain(sub)
			for b := range set {
				set[b] = s[b] && (i == 0 || set[b])
			}
		}
	}
	return set
}

// maxMatchLen returns the longest match of re in bytes, or -1 when
// unbounded. A rune counts its UTF-8 length; an invalid byte matched as
// U+FFFD is shorter than U+FFFD's three bytes, so the bound still holds.
func maxMatchLen(re *syntax.Regexp) int {
	return maxTotal(re, func(leaf *syntax.Regexp) int {
		switch leaf.Op {
		case syntax.OpLiteral:
			if leaf.Flags&syntax.FoldCase != 0 {
				return len(leaf.Rune) * utf8.UTFMax
			}
			n := 0
			for _, r := range leaf.Rune {
				n += runesMaxLen([]rune{r})
			}
			return n
		case syntax.OpCharClass:
			return runesMaxLen(leaf.Rune)
		}
		return utf8.UTFMax
	})
}

// runesMaxLen returns the longest UTF-8 length among rs.
func runesMaxLen(rs []rune) int {
	n := 0
	for _, r := range rs {
		if l := utf8.RuneLen(r); l < 0 {
			n = utf8.UTFMax
		} else {
			n = max(n, l)
		}
	}
	return n
}

// maxSpaces returns the most ' ' bytes a match of re contains, or -1 when
// unbounded. Only the rune ' ' spells that byte: no other rune folds to it,
// and every other rune's UTF-8 bytes and every invalid byte differ from it.
func maxSpaces(re *syntax.Regexp) int {
	return maxTotal(re, func(leaf *syntax.Regexp) int {
		switch leaf.Op {
		case syntax.OpLiteral:
			return strings.Count(string(leaf.Rune), " ")
		case syntax.OpCharClass:
			for i := 0; i+1 < len(leaf.Rune); i += 2 {
				if leaf.Rune[i] <= ' ' && ' ' <= leaf.Rune[i+1] {
					return 1
				}
			}
			return 0
		}
		return 1
	})
}

// maxTotal returns the largest total weight of the rune-consuming nodes a
// match of re passes through, or -1 when unbounded. weight gives the most a
// literal, character class or any-character node can add.
func maxTotal(re *syntax.Regexp, weight func(*syntax.Regexp) int) int {
	const limit = 1 << 20
	n := -1
	switch re.Op {
	case syntax.OpNoMatch, syntax.OpEmptyMatch, syntax.OpWordBoundary, syntax.OpNoWordBoundary,
		syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText:
		n = 0
	case syntax.OpLiteral, syntax.OpCharClass, syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		n = weight(re)
	case syntax.OpCapture, syntax.OpQuest:
		n = maxTotal(re.Sub[0], weight)
	case syntax.OpStar, syntax.OpPlus:
		if maxTotal(re.Sub[0], weight) == 0 {
			n = 0
		}
	case syntax.OpRepeat:
		if s := maxTotal(re.Sub[0], weight); s == 0 {
			n = 0
		} else if s > 0 && re.Max >= 0 {
			n = s * re.Max
		}
	case syntax.OpConcat, syntax.OpAlternate:
		n = 0
		for _, sub := range re.Sub {
			s := maxTotal(sub, weight)
			if s < 0 {
				return -1
			}
			if re.Op == syntax.OpConcat {
				n += s
			} else {
				n = max(n, s)
			}
		}
	}
	if n > limit {
		return -1
	}
	return n
}
