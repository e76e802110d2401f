package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// tokenize and tokenizeXML run the arena tokenizer on a fresh arena, so each
// returned stream owns its slabs.
func tokenize(s string) []Token    { return NewArena().TokenizeHTML(s) }
func tokenizeXML(s string) []Token { return NewArena().TokenizeXML(s) }

func tokenKinds(toks []Token) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.Type {
		case StartTag:
			b.WriteString("<" + t.Name + ">")
		case EndTag:
			b.WriteString("</" + t.Name + ">")
		case Text:
			b.WriteString("T")
		case Comment:
			b.WriteString("C")
		case Doctype:
			b.WriteString("D")
		}
	}
	return b.String()
}

func TestTokenizeSimpleDocument(t *testing.T) {
	toks := tokenize("<html><body>Hello</body></html>")
	got := tokenKinds(toks)
	want := "<html> <body> T </body> </html>"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if toks[2].Data != "Hello" {
		t.Errorf("text = %q, want Hello", toks[2].Data)
	}
}

func TestTokenizeAttributes(t *testing.T) {
	cases := []struct {
		name  string
		input string
		key   string
		want  string
	}{
		{"double quoted", `<body bgcolor="#FFFFFF">`, "bgcolor", "#FFFFFF"},
		{"single quoted", `<a href='x.html'>`, "href", "x.html"},
		{"unquoted", `<td width=40>`, "width", "40"},
		{"uppercase key", `<TD WIDTH=40>`, "width", "40"},
		{"entity in value", `<a href="a&amp;b">`, "href", "a&b"},
		{"boolean attr", `<td nowrap>`, "nowrap", ""},
		{"spaces around equals", `<img src = "pic.gif">`, "src", "pic.gif"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			toks := tokenize(c.input)
			if len(toks) != 1 || toks[0].Type != StartTag {
				t.Fatalf("tokens = %v", toks)
			}
			got, ok := toks[0].Attr(c.key)
			if !ok {
				t.Fatalf("attribute %q missing", c.key)
			}
			if got != c.want {
				t.Errorf("attr %q = %q, want %q", c.key, got, c.want)
			}
		})
	}
}

func TestTokenizeMultipleAttributes(t *testing.T) {
	toks := tokenize(`<h1 align="left" class=big id='x'>`)
	if len(toks[0].Attrs) != 3 {
		t.Fatalf("attrs = %v, want 3", toks[0].Attrs)
	}
	wantKeys := []string{"align", "class", "id"}
	for i, k := range wantKeys {
		if toks[0].Attrs[i].Key != k {
			t.Errorf("attr %d key = %q, want %q", i, toks[0].Attrs[i].Key, k)
		}
	}
}

func TestTokenizeUppercaseTagNames(t *testing.T) {
	toks := tokenize("<HTML><Body></BODY></html>")
	names := []string{"html", "body", "body", "html"}
	for i, n := range names {
		if toks[i].Name != n {
			t.Errorf("token %d name = %q, want %q", i, toks[i].Name, n)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks := tokenize("a<!-- hidden <b> -->b")
	got := tokenKinds(toks)
	if got != "T C T" {
		t.Fatalf("kinds = %q, want T C T", got)
	}
	if toks[1].Data != " hidden <b> " {
		t.Errorf("comment data = %q", toks[1].Data)
	}
}

func TestTokenizeUnterminatedComment(t *testing.T) {
	toks := tokenize("a<!-- never ends")
	if len(toks) != 2 || toks[1].Type != Comment {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestTokenizeDoctype(t *testing.T) {
	toks := tokenize(`<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 3.2//EN"><html>`)
	if toks[0].Type != Doctype {
		t.Fatalf("first token = %v, want doctype", toks[0])
	}
	if toks[1].Name != "html" {
		t.Errorf("second token = %v", toks[1])
	}
}

func TestTokenizeBareLessThan(t *testing.T) {
	toks := tokenize("price < 5000 and > 100")
	if len(toks) != 1 || toks[0].Type != Text {
		t.Fatalf("tokens = %v, want single text", toks)
	}
	if !strings.Contains(toks[0].Data, "< 5000") {
		t.Errorf("text = %q", toks[0].Data)
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := tokenize("<br/><hr />")
	if !toks[0].SelfClosing || !toks[1].SelfClosing {
		t.Errorf("self-closing flags: %v %v", toks[0].SelfClosing, toks[1].SelfClosing)
	}
	if toks[0].Name != "br" || toks[1].Name != "hr" {
		t.Errorf("names: %q %q", toks[0].Name, toks[1].Name)
	}
}

func TestTokenizeRawTextScript(t *testing.T) {
	toks := tokenize(`<script>if (a < b && c > d) { x("<b>"); }</script>after`)
	got := tokenKinds(toks)
	if got != "<script> T </script> T" {
		t.Fatalf("kinds = %q", got)
	}
	if !strings.Contains(toks[1].Data, `x("<b>")`) {
		t.Errorf("script body = %q", toks[1].Data)
	}
}

func TestTokenizeRawTextStyleCaseInsensitiveClose(t *testing.T) {
	toks := tokenize("<style>b { color: red }</STYLE>x")
	got := tokenKinds(toks)
	if got != "<style> T </style> T" {
		t.Fatalf("kinds = %q", got)
	}
}

func TestTokenizeUnterminatedRawText(t *testing.T) {
	toks := tokenize("<script>var x = 1;")
	if len(toks) != 2 || toks[1].Type != Text {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestTokenizePositions(t *testing.T) {
	input := "ab<b>cd</b>"
	toks := tokenize(input)
	for _, tok := range toks {
		if tok.Pos < 0 || tok.End > len(input) || tok.Pos >= tok.End {
			t.Errorf("token %v has bad range [%d,%d)", tok, tok.Pos, tok.End)
		}
	}
	if toks[1].Pos != 2 || toks[1].End != 5 {
		t.Errorf("<b> range = [%d,%d), want [2,5)", toks[1].Pos, toks[1].End)
	}
}

func TestTokenizePositionsCoverInput(t *testing.T) {
	input := `<html><!-- c --><body bgcolor="#fff">text &amp; more<br></body></html>`
	toks := tokenize(input)
	covered := 0
	for _, tok := range toks {
		covered += tok.End - tok.Pos
	}
	if covered != len(input) {
		t.Errorf("tokens cover %d bytes, input has %d", covered, len(input))
	}
	// Tokens must also be contiguous and ordered.
	pos := 0
	for _, tok := range toks {
		if tok.Pos != pos {
			t.Errorf("token %v starts at %d, want %d", tok, tok.Pos, pos)
		}
		pos = tok.End
	}
}

func TestTokenizeProcessingInstruction(t *testing.T) {
	toks := tokenize(`<?xml version="1.0"?>x`)
	if toks[0].Type != Comment {
		t.Fatalf("PI should tokenize as comment, got %v", toks[0])
	}
	if toks[1].Data != "x" {
		t.Errorf("following text = %q", toks[1].Data)
	}
}

func TestTokenizeUnterminatedPI(t *testing.T) {
	// Regression: "<?" at EOF used to panic (found by FuzzTokenize).
	for _, in := range []string{"<?", "a<?", "<?x", "<?xml"} {
		toks := tokenize(in)
		if len(toks) == 0 {
			t.Errorf("tokenize(%q) returned nothing", in)
		}
	}
}

func TestTokenizeUnclosedTagAtEOF(t *testing.T) {
	toks := tokenize("<b")
	if len(toks) != 1 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[0].Type != StartTag || toks[0].Name != "b" {
		t.Errorf("token = %v", toks[0])
	}
}

func TestTokenizeEmptyInput(t *testing.T) {
	if toks := tokenize(""); len(toks) != 0 {
		t.Errorf("tokens = %v, want none", toks)
	}
}

func TestTokenTypeString(t *testing.T) {
	cases := map[TokenType]string{
		StartTag: "StartTag", EndTag: "EndTag", Text: "Text",
		Comment: "Comment", Doctype: "Doctype", TokenType(99): "Unknown",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestAttrLookupCaseInsensitiveAndMissing(t *testing.T) {
	toks := tokenize(`<td WIDTH=40>`)
	if v, ok := toks[0].Attr("WiDtH"); !ok || v != "40" {
		t.Errorf("case-insensitive lookup = %q %v", v, ok)
	}
	if _, ok := toks[0].Attr("height"); ok {
		t.Error("missing attribute should report !ok")
	}
}

func TestTokenizeTagNamePunctuation(t *testing.T) {
	// Name bytes include -, _, :, . — XMLish names survive the HTML
	// tokenizer too.
	toks := tokenize("<my-tag><ns:other><x_y.z>")
	want := []string{"my-tag", "ns:other", "x_y.z"}
	for i, w := range want {
		if toks[i].Name != w {
			t.Errorf("token %d name = %q, want %q", i, toks[i].Name, w)
		}
	}
}

func TestIsVoid(t *testing.T) {
	for _, name := range []string{"br", "hr", "img", "input", "meta", "link"} {
		if !IsVoid(name) {
			t.Errorf("IsVoid(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"b", "td", "table", "p", "div"} {
		if IsVoid(name) {
			t.Errorf("IsVoid(%q) = true, want false", name)
		}
	}
}

func TestDecodeEntitiesNamed(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Fish &amp; Chips", "Fish & Chips"},
		{"a &lt; b &gt; c", "a < b > c"},
		{"&quot;hi&quot;", `"hi"`},
		{"&nbsp;", " "},
		{"caf&eacute;", "café"},
		{"&copy; 1998", "© 1998"},
		{"no entities here", "no entities here"},
		{"&mdash;", "—"},
		{"&unknown;", "&unknown;"},
		{"&", "&"},
		{"&&amp;", "&&"},
		{"&amp no semicolon", "& no semicolon"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDecodeEntitiesNumeric(t *testing.T) {
	cases := []struct{ in, want string }{
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"&#233;", "é"},
		{"&#0;", "&#0;"}, // NUL rejected
		{"&#x;", "&#x;"}, // no digits
		{"&#abc;", "&#abc;"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: tokenizing never panics and token ranges are sane for arbitrary
// input, including binary garbage.
func TestTokenizeArbitraryInputProperty(t *testing.T) {
	f := func(s string) bool {
		toks := tokenize(s)
		pos := 0
		for _, tok := range toks {
			if tok.Pos != pos || tok.End < tok.Pos || tok.End > len(s) {
				return false
			}
			pos = tok.End
		}
		return pos == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: DecodeEntities is identity on strings with no ampersand.
func TestDecodeEntitiesIdentityProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.ReplaceAll(s, "&", "")
		return DecodeEntities(clean) == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	doc := strings.Repeat(`<tr><td><b>1993 Ford Taurus</b> &mdash; $4,500 <a href="mailto:x@y.com">call</a></td></tr>`, 200)
	a := NewArena()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.TokenizeHTML(doc)
	}
}
