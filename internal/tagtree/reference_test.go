package tagtree

// The reference parser: the string tokenizers and the heap tree builder the
// arena replaced, kept only as the oracle FuzzByteVsStringParse and the
// arena tests diff the production parser against. They are written for
// clarity, not speed — one heap string per token, one heap node per region —
// so a grammar change in internal/htmlparse/scan.go or arena.go that is not
// mirrored here shows up as a divergence.

import (
	"context"
	"strings"

	"repro/internal/htmlparse"
)

// refParse is the reference ParseContext: string tokenizer, shared
// normalizer, heap builder.
func refParse(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return refBuild(ctx, Normalize(refTokenize(doc)), htmlparse.IsVoid, lim)
}

// refParseXML is the reference ParseXMLContext.
func refParseXML(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	norm, _ := normalizeXMLInto(refTokenizeXML(doc), nil, nil)
	return refBuild(ctx, norm, neverVoid, lim)
}

// refBuild constructs a tree from an already-balanced token stream with one
// heap allocation per node, honoring ctx and lim in the same order as
// Arena.build.
func refBuild(ctx context.Context, norm []htmlparse.Token, isVoid func(string) bool, lim Limits) (*Tree, error) {
	t := &Tree{Root: &Node{Name: "#document"}}
	cur := t.Root
	depth, nodes := 0, 0
	for i, tok := range norm {
		if i%buildCheckEvery == buildCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch tok.Type {
		case htmlparse.Text:
			if tok.Data == "" {
				continue
			}
			cur.Chunks = append(cur.Chunks, Chunk{Text: tok.Data, Pos: tok.Pos})
			t.Events = append(t.Events, Event{Kind: EventText, Text: tok.Data, Pos: tok.Pos})

		case htmlparse.StartTag:
			nodes++
			if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, errTooManyNodes(lim.MaxNodes)
			}
			n := &Node{
				Name:       tok.Name,
				Attrs:      tok.Attrs,
				Parent:     cur,
				StartPos:   tok.Pos,
				EndPos:     tok.End,
				firstEvent: len(t.Events),
			}
			cur.Children = append(cur.Children, n)
			t.Events = append(t.Events, Event{Kind: EventStart, Node: n, Pos: tok.Pos})
			if tok.SelfClosing || isVoid(tok.Name) {
				n.lastEvent = len(t.Events)
				continue
			}
			depth++
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return nil, errTooDeep(lim.MaxDepth)
			}
			cur = n

		case htmlparse.EndTag:
			// Normalize guarantees balance, so this matches cur.
			if cur == t.Root {
				continue
			}
			t.Events = append(t.Events, Event{Kind: EventEnd, Node: cur, Pos: tok.Pos})
			cur.EndPos = tok.End
			cur.lastEvent = len(t.Events)
			cur = cur.Parent
			depth--
		}
	}
	t.Root.firstEvent = 0
	t.Root.lastEvent = len(t.Events)
	if n := len(norm); n > 0 {
		t.Root.EndPos = norm[n-1].End
	}
	countSubtreeTags(t.Root)
	return t, nil
}

// refTokenize scans an HTML document into heap tokens with the reference
// grammar.
func refTokenize(input string) []htmlparse.Token {
	z := &refTokenizer{input: input}
	var out []htmlparse.Token
	for z.pos < len(z.input) {
		out = append(out, z.next())
	}
	return out
}

// refTokenizer is the reference HTML tokenizer.
type refTokenizer struct {
	input string
	pos   int
	// rawEnd, when non-empty, is the element name whose raw-text content we
	// are inside (script, style, ...); the next token is everything up to
	// its end-tag.
	rawEnd string
}

func (z *refTokenizer) next() htmlparse.Token {
	if z.rawEnd != "" {
		return z.scanRawText()
	}
	if refLooksLikeMarkup(z.input[z.pos:]) {
		return z.scanMarkup()
	}
	// A lone '<' that does not begin real markup is character data.
	return z.scanText()
}

// scanText consumes character data up to the next plausible markup start.
func (z *refTokenizer) scanText() htmlparse.Token {
	start := z.pos
	// The first byte may be a non-markup '<'; always consume at least one.
	i := z.pos + 1
	for i < len(z.input) {
		if z.input[i] == '<' && refLooksLikeMarkup(z.input[i:]) {
			break
		}
		i++
	}
	z.pos = i
	return htmlparse.Token{Type: htmlparse.Text, Data: htmlparse.DecodeEntities(z.input[start:i]), Pos: start, End: i}
}

// refLooksLikeMarkup reports whether s plausibly starts a tag, comment, or
// declaration, as opposed to a bare less-than in text.
func refLooksLikeMarkup(s string) bool {
	if len(s) < 2 || s[0] != '<' {
		return false
	}
	c := s[1]
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '/' || c == '!' || c == '?'
}

// scanMarkup consumes a tag, comment, or declaration starting at '<'.
func (z *refTokenizer) scanMarkup() htmlparse.Token {
	s := z.input
	start := z.pos
	switch s[start+1] {
	case '!':
		return z.scanDeclaration()
	case '?':
		// Processing instruction / bogus comment: skip to '>'. An
		// unterminated PI at EOF has no '>' to strip, hence the clamp.
		end := refIndexFrom(s, start, '>')
		z.pos = end
		return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+2 : max(start+2, end-1)], Pos: start, End: end}
	case '/':
		return z.scanEndTag()
	default:
		return z.scanStartTag()
	}
}

// scanDeclaration consumes <!-- comments --> and <!DOCTYPE ...> style
// declarations. Comments respect the full "-->" terminator.
func (z *refTokenizer) scanDeclaration() htmlparse.Token {
	s := z.input
	start := z.pos
	if strings.HasPrefix(s[start:], "<!--") {
		end := strings.Index(s[start+4:], "-->")
		if end < 0 {
			z.pos = len(s)
			return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+4:], Pos: start, End: len(s)}
		}
		stop := start + 4 + end + 3
		z.pos = stop
		return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+4 : stop-3], Pos: start, End: stop}
	}
	end := refIndexFrom(s, start, '>')
	z.pos = end
	body := s[start+2 : max(start+2, end-1)]
	typ := htmlparse.Comment
	if len(body) >= 7 && strings.EqualFold(body[:7], "doctype") {
		typ = htmlparse.Doctype
	}
	return htmlparse.Token{Type: typ, Data: body, Pos: start, End: end}
}

// scanEndTag consumes </name ...>.
func (z *refTokenizer) scanEndTag() htmlparse.Token {
	s := z.input
	start := z.pos
	i := refNameEnd(s, start+2)
	name := strings.ToLower(s[start+2 : i])
	end := refIndexFrom(s, i, '>')
	z.pos = end
	return htmlparse.Token{Type: htmlparse.EndTag, Name: name, Pos: start, End: end}
}

// scanStartTag consumes <name attr=value ...> including attributes.
func (z *refTokenizer) scanStartTag() htmlparse.Token {
	s := z.input
	start := z.pos
	i := refNameEnd(s, start+1)
	name := strings.ToLower(s[start+1 : i])
	tok := htmlparse.Token{Type: htmlparse.StartTag, Name: name, Pos: start}

	for i < len(s) && s[i] != '>' {
		// Skip whitespace between attributes.
		for i < len(s) && refIsSpace(s[i]) {
			i++
		}
		if i >= len(s) || s[i] == '>' {
			break
		}
		if s[i] == '/' {
			i++
			if i < len(s) && s[i] == '>' {
				tok.SelfClosing = true
			}
			continue
		}
		keyStart := i
		for i < len(s) && !refIsSpace(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
			i++
		}
		key := strings.ToLower(s[keyStart:i])
		for i < len(s) && refIsSpace(s[i]) {
			i++
		}
		var val string
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && refIsSpace(s[i]) {
				i++
			}
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				valStart := i
				for i < len(s) && s[i] != quote {
					i++
				}
				val = s[valStart:i]
				if i < len(s) {
					i++ // consume closing quote
				}
			} else {
				valStart := i
				for i < len(s) && !refIsSpace(s[i]) && s[i] != '>' {
					i++
				}
				val = s[valStart:i]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, htmlparse.Attr{Key: key, Value: htmlparse.DecodeEntities(val)})
		}
	}
	if i < len(s) {
		i++ // consume '>'
	}
	tok.End = i
	z.pos = i
	if htmlparse.IsRawText(name) && !tok.SelfClosing {
		z.rawEnd = name
	}
	return tok
}

// scanRawText consumes raw-text content up to the matching end-tag of the
// raw-text element we are inside; the end-tag itself is left for the next
// call. Raw text is not entity-decoded (scripts may contain '&&').
func (z *refTokenizer) scanRawText() htmlparse.Token {
	s := z.input
	start := z.pos
	end := htmlparse.RawTextEnd(s, start, z.rawEnd)
	z.pos = end
	z.rawEnd = ""
	return htmlparse.Token{Type: htmlparse.Text, Data: s[start:end], Pos: start, End: end}
}

// refTokenizeXML scans an XML document into heap tokens with the reference
// XML grammar: element names keep their case, CDATA sections become literal
// text, processing instructions become comments, and there are no void or
// raw-text elements.
func refTokenizeXML(input string) []htmlparse.Token {
	s := input
	var out []htmlparse.Token
	for pos := 0; pos < len(s); {
		var tok htmlparse.Token
		switch {
		case !refLooksLikeMarkup(s[pos:]):
			i := pos + 1
			for i < len(s) && !refLooksLikeMarkup(s[i:]) {
				i++
			}
			tok = htmlparse.Token{Type: htmlparse.Text, Data: htmlparse.DecodeEntities(s[pos:i]), Pos: pos, End: i}
		case strings.HasPrefix(s[pos:], "<![CDATA["):
			body := pos + len("<![CDATA[")
			tok = htmlparse.Token{Type: htmlparse.Text, Data: s[body:], Pos: pos, End: len(s)}
			if end := strings.Index(s[body:], "]]>"); end >= 0 {
				tok.Data, tok.End = s[body:body+end], body+end+3
			}
		case s[pos+1] == '/':
			i := refNameEnd(s, pos+2)
			tok = htmlparse.Token{Type: htmlparse.EndTag, Name: s[pos+2 : i], Pos: pos, End: refIndexFrom(s, i, '>')}
		default:
			// Comments, declarations, processing instructions, and start
			// tags share the HTML scanner; start tags then restore the
			// name's case and never open raw text.
			z := &refTokenizer{input: s, pos: pos}
			tok = z.scanMarkup()
			if tok.Type == htmlparse.StartTag {
				tok.Name = s[pos+1 : refNameEnd(s, pos+1)]
			}
		}
		out = append(out, tok)
		pos = tok.End
	}
	return out
}

// refIndexFrom returns the index just past the first occurrence of b at or
// after from, or len(s) if absent.
func refIndexFrom(s string, from int, b byte) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i + 1
	}
	return len(s)
}

// refNameEnd returns the index just past the tag-name run ([a-zA-Z0-9._:-])
// starting at i.
func refNameEnd(s string, i int) int {
	for i < len(s) {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == ':' || c == '.') {
			break
		}
		i++
	}
	return i
}

func refIsSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}
