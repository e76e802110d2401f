package ontology

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Parse reads an application ontology from its DSL text. The DSL is
// line-oriented:
//
//	ontology Obituary
//	entity Obituary
//
//	lexicon Month { January February March ... December }
//
//	object DeathDate : one-to-one {
//	    type date
//	    keyword `died on|passed away`
//	    value `{Month} [0-9]{1,2}, [0-9]{4}`
//	}
//
//	relationship Dies : Obituary [1] DeathDate [1]
//
// Patterns are Go regular expressions in backquotes; `{Name}` interpolates a
// lexicon as a non-capturing alternation. Comments start with '#'. Lexicons
// must be declared before the patterns that use them.
func Parse(src string) (*Ontology, error) {
	p := &parser{
		ont:   &Ontology{Lexicons: map[string][]string{}},
		lines: strings.Split(src, "\n"),
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	if err := p.ont.Validate(); err != nil {
		return nil, err
	}
	return p.ont, nil
}

// MustParse is Parse that panics on error; for package-level ontology
// literals whose validity is covered by tests.
func MustParse(src string) *Ontology {
	o, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return o
}

type parser struct {
	ont   *Ontology
	lines []string
	pos   int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ontology dsl line %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// next returns the next non-blank, non-comment line, trimmed. ok is false at
// end of input.
func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		p.pos++
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (p *parser) run() error {
	for {
		line, ok := p.next()
		if !ok {
			return nil
		}
		word, rest := splitWord(line)
		switch word {
		case "ontology":
			p.ont.Name = strings.TrimSpace(rest)
		case "entity":
			p.ont.Entity = strings.TrimSpace(rest)
		case "lexicon":
			if err := p.parseLexicon(rest); err != nil {
				return err
			}
		case "object":
			if err := p.parseObject(rest); err != nil {
				return err
			}
		case "relationship":
			if err := p.parseRelationship(rest); err != nil {
				return err
			}
		default:
			return p.errf("unknown declaration %q", word)
		}
	}
}

func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// parseLexicon handles: Name { word word ... } possibly spanning lines.
func (p *parser) parseLexicon(rest string) error {
	name, tail := splitWord(rest)
	if name == "" {
		return p.errf("lexicon needs a name")
	}
	body, err := p.collectBraces(tail)
	if err != nil {
		return err
	}
	words := strings.Fields(body)
	if len(words) == 0 {
		return p.errf("lexicon %s is empty", name)
	}
	p.ont.Lexicons[name] = words
	return nil
}

// collectBraces gathers the text between { and }, starting from tail (the
// remainder of the declaration line) and consuming further lines as needed.
func (p *parser) collectBraces(tail string) (string, error) {
	var b strings.Builder
	line := tail
	seenOpen := false
	for {
		if !seenOpen {
			i := strings.IndexByte(line, '{')
			if i < 0 {
				return "", p.errf("expected '{'")
			}
			seenOpen = true
			line = line[i+1:]
		}
		if j := strings.IndexByte(line, '}'); j >= 0 {
			b.WriteString(line[:j])
			return b.String(), nil
		}
		b.WriteString(line)
		b.WriteByte('\n')
		var ok bool
		line, ok = p.nextRaw()
		if !ok {
			return "", p.errf("unterminated '{'")
		}
	}
}

// nextRaw returns the next line without comment filtering (lexicon bodies
// and object bodies may contain '#' inside patterns).
func (p *parser) nextRaw() (string, bool) {
	if p.pos >= len(p.lines) {
		return "", false
	}
	line := p.lines[p.pos]
	p.pos++
	return line, true
}

// parseObject handles: Name : cardinality { body }.
func (p *parser) parseObject(rest string) error {
	head, tail, found := strings.Cut(rest, "{")
	if !found {
		return p.errf("object needs a '{' body")
	}
	namePart, cardPart, found := strings.Cut(head, ":")
	if !found {
		return p.errf("object needs ': cardinality'")
	}
	obj := &ObjectSet{Name: strings.TrimSpace(namePart)}
	switch card := strings.TrimSpace(cardPart); card {
	case "one-to-one":
		obj.Cardinality = OneToOne
	case "functional":
		obj.Cardinality = Functional
	case "many":
		obj.Cardinality = Many
	default:
		return p.errf("object %s: unknown cardinality %q", obj.Name, card)
	}
	if err := p.parseObjectBody(obj, tail); err != nil {
		return err
	}
	p.ont.ObjectSets = append(p.ont.ObjectSets, obj)
	return nil
}

func (p *parser) parseObjectBody(obj *ObjectSet, firstLine string) error {
	line := firstLine
	for {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			var ok bool
			line, ok = p.nextRaw()
			if !ok {
				return p.errf("object %s: unterminated body", obj.Name)
			}
			continue
		}
		if strings.HasPrefix(line, "}") {
			return nil
		}
		word, rest := splitWord(line)
		switch word {
		case "type":
			obj.Frame.Type = strings.TrimSpace(rest)
		case "keyword", "value":
			pat, err := p.compilePattern(rest, obj.Name)
			if err != nil {
				return err
			}
			if word == "keyword" {
				obj.Frame.KeywordPatterns = append(obj.Frame.KeywordPatterns, pat)
			} else {
				obj.Frame.ValuePatterns = append(obj.Frame.ValuePatterns, pat)
			}
		default:
			return p.errf("object %s: unknown property %q", obj.Name, word)
		}
		var ok bool
		line, ok = p.nextRaw()
		if !ok {
			return p.errf("object %s: unterminated body", obj.Name)
		}
	}
}

// compilePattern extracts a backquoted pattern, interpolates lexicons, and
// compiles it.
func (p *parser) compilePattern(s, owner string) (*regexp.Regexp, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '`' {
		return nil, p.errf("object %s: pattern must be backquoted", owner)
	}
	end := strings.IndexByte(s[1:], '`')
	if end < 0 {
		return nil, p.errf("object %s: unterminated pattern", owner)
	}
	pat, err := p.interpolate(s[1 : 1+end])
	if err != nil {
		return nil, p.errf("object %s: %v", owner, err)
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, p.errf("object %s: bad pattern: %v", owner, err)
	}
	return re, nil
}

// interpolate replaces {Lexicon} references with non-capturing alternations
// of the lexicon's (regexp-quoted) members.
func (p *parser) interpolate(pat string) (string, error) {
	var b strings.Builder
	for {
		i := strings.IndexByte(pat, '{')
		if i < 0 {
			b.WriteString(pat)
			return b.String(), nil
		}
		// A '{' that is part of a regexp quantifier like [0-9]{1,2} has a
		// digit right after it; lexicon names start with a letter.
		j := strings.IndexByte(pat[i:], '}')
		if j < 0 {
			b.WriteString(pat)
			return b.String(), nil
		}
		name := pat[i+1 : i+j]
		words, ok := p.ont.Lexicons[name]
		if !ok {
			if isLexiconName(name) {
				return "", fmt.Errorf("unknown lexicon {%s}", name)
			}
			// Quantifier or other regexp construct: pass through.
			b.WriteString(pat[:i+j+1])
			pat = pat[i+j+1:]
			continue
		}
		b.WriteString(pat[:i])
		b.WriteString("(?:")
		for k, w := range words {
			if k > 0 {
				b.WriteByte('|')
			}
			b.WriteString(regexp.QuoteMeta(w))
		}
		b.WriteString(")")
		pat = pat[i+j+1:]
	}
}

// isLexiconName reports whether s looks like a lexicon reference (letters
// only, initial uppercase) rather than a regexp quantifier.
func isLexiconName(s string) bool {
	if s == "" || s[0] < 'A' || s[0] > 'Z' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return false
		}
	}
	return true
}

// parseRelationship handles: Name : From [card] To [card].
func (p *parser) parseRelationship(rest string) error {
	name, tail, found := strings.Cut(rest, ":")
	if !found {
		return p.errf("relationship needs ':'")
	}
	r := Relationship{Name: strings.TrimSpace(name)}
	m := relPattern.FindStringSubmatch(strings.TrimSpace(tail))
	if m == nil {
		return p.errf("relationship %s: want 'From [card] To [card]'", r.Name)
	}
	r.From, r.FromCard, r.To, r.ToCard = m[1], m[2], m[3], m[4]
	p.ont.Relationships = append(p.ont.Relationships, r)
	return nil
}

var relPattern = regexp.MustCompile(`^(\S+)\s*\[([^\]]*)\]\s*(\S+)\s*\[([^\]]*)\]$`)

// Resolve turns a request's ontology argument into an ontology: empty means
// none (nil, so OM declines), a built-in name selects that ontology, and
// anything else is parsed as DSL source.
func Resolve(src string) (*Ontology, error) {
	if src == "" {
		return nil, nil
	}
	if ont := Builtin(src); ont != nil {
		return ont, nil
	}
	ont, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("ontology is neither built-in (%v) nor valid DSL: %w",
			BuiltinNames(), err)
	}
	return ont, nil
}

// Load resolves a command's -ontology flag: empty means none, a built-in
// name selects that ontology (src is the name), and anything else is read
// as a DSL file (src is its contents). A file that cannot be read fails
// with an error wrapping its *os.PathError; one that does not parse, with
// the parse error.
func Load(flag string) (src string, ont *Ontology, err error) {
	if flag == "" || Builtin(flag) != nil {
		return flag, Builtin(flag), nil
	}
	data, err := os.ReadFile(flag)
	if err != nil {
		return "", nil, fmt.Errorf("ontology %q is neither built-in nor readable: %w", flag, err)
	}
	if ont, err = Parse(string(data)); err != nil {
		return "", nil, err
	}
	return string(data), ont, nil
}
