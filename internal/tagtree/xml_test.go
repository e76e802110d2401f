package tagtree

import (
	"testing"

	"repro/internal/htmlparse"
)

const sampleXML = `<?xml version="1.0"?>
<!-- a catalog feed -->
<catalog>
  <listing>
    <name>Lemar K. Adamson</name>
    <date>September 30, 1998</date>
  </listing>
  <listing>
    <name>Brian Fielding Frost</name>
    <date>September 30, 1998</date>
  </listing>
  <listing>
    <name>Leonard Kenneth Gunther</name>
    <date/>
  </listing>
</catalog>`

func TestParseXMLShape(t *testing.T) {
	tree := ParseXML(sampleXML)
	got := shape(tree.Root)
	want := "#document(catalog(listing(name date) listing(name date) listing(name date)))"
	if got != want {
		t.Errorf("shape = %s, want %s", got, want)
	}
}

func TestParseXMLHighestFanOutAndCandidates(t *testing.T) {
	tree := ParseXML(sampleXML)
	hf := tree.HighestFanOut()
	if hf.Name != "catalog" {
		t.Fatalf("highest fan-out = %s, want catalog", hf.Name)
	}
	cands := Candidates(hf, DefaultCandidateThreshold)
	names := map[string]int{}
	for _, c := range cands {
		names[c.Name] = c.Count
	}
	if names["listing"] != 3 || names["name"] != 3 || names["date"] != 3 {
		t.Errorf("candidates = %v", cands)
	}
}

func TestParseXMLCaseSensitivity(t *testing.T) {
	// <Item> and <item> are different XML elements; </item> must not close
	// <Item>.
	tree := ParseXML("<root><Item>a</Item><item>b</item></root>")
	root := tree.Root.Find("root")
	if got := shape(root); got != "root(Item item)" {
		t.Errorf("shape = %s, want root(Item item)", got)
	}
}

func TestParseXMLNoHTMLVoidSemantics(t *testing.T) {
	// An XML element named "br" can have children — HTML void rules must
	// not apply.
	tree := ParseXML("<root><br><child>x</child></br></root>")
	br := tree.Root.Find("br")
	if br == nil || len(br.Children) != 1 || br.Children[0].Name != "child" {
		t.Errorf("br children wrong: %v", shape(tree.Root))
	}
}

func TestParseXMLSelfClosing(t *testing.T) {
	tree := ParseXML("<root><a/><b/><c/></root>")
	root := tree.Root.Find("root")
	if root.FanOut() != 3 {
		t.Errorf("fan-out = %d, want 3", root.FanOut())
	}
}

func TestParseXMLCDATA(t *testing.T) {
	tree := ParseXML("<root><![CDATA[a < b && c > d]]></root>")
	root := tree.Root.Find("root")
	if got := root.Text(); got != "a < b && c > d" {
		t.Errorf("CDATA text = %q", got)
	}
}

func TestParseXMLUnterminatedCDATA(t *testing.T) {
	tree := ParseXML("<root><![CDATA[never ends")
	if tree.Root.Find("root") == nil {
		t.Error("root lost")
	}
}

func TestTokenizeXMLPreservesNameCase(t *testing.T) {
	toks := htmlparse.NewArena().TokenizeXML("<CamelCase attr='x'>text</CamelCase>")
	if toks[0].Name != "CamelCase" || toks[2].Name != "CamelCase" {
		t.Errorf("names = %q / %q", toks[0].Name, toks[2].Name)
	}
	if v, ok := toks[0].Attr("attr"); !ok || v != "x" {
		t.Errorf("attr = %q %v", v, ok)
	}
}

func TestTokenizeXMLProcessingInstruction(t *testing.T) {
	toks := htmlparse.NewArena().TokenizeXML(`<?xml version="1.0"?><r/>`)
	if toks[0].Type != htmlparse.Comment {
		t.Errorf("PI token = %v", toks[0])
	}
	if toks[1].Name != "r" || !toks[1].SelfClosing {
		t.Errorf("element token = %v", toks[1])
	}
}

func TestNormalizeXMLDiscardsOrphanEnds(t *testing.T) {
	norm, _ := normalizeXMLInto(htmlparse.NewArena().TokenizeXML("</stray><a>x</a>"), nil, nil)
	for _, tok := range norm {
		if tok.Type == htmlparse.EndTag && tok.Name == "stray" {
			t.Error("orphan end survived")
		}
	}
}

func TestNormalizeXMLInsertsMissingEnds(t *testing.T) {
	norm, _ := normalizeXMLInto(htmlparse.NewArena().TokenizeXML("<a><b>x</a>"), nil, nil)
	var names []string
	for _, tok := range norm {
		if tok.Type == htmlparse.EndTag {
			names = append(names, tok.Name)
		}
	}
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("end order = %v, want [b a]", names)
	}
}
