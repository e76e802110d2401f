package htmlparse

import "testing"

// FuzzTokenize: the tokenizer must never panic and must produce contiguous,
// in-bounds token ranges covering the whole input, for any byte soup.
// Run `go test -fuzz=FuzzTokenize ./internal/htmlparse` to explore beyond
// the seed corpus; the seeds alone run in normal `go test`.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<html><body>x</body></html>",
		"<b>unclosed",
		"</orphan>",
		"<!-- comment",
		"<!DOCTYPE html><p>",
		"<a href='x' b=\"y\" c=z d>",
		"<script>if (a<b) {}</script>",
		"< not a tag >",
		"&amp;&#65;&#x41;&bogus;&",
		"<td nowrap><tr><td>",
		"\x00\xff<p>\x80",
		"<p/><br/><hr />",
		"<style>b{}</STYLE>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := tokenize(s)
		pos := 0
		for _, tok := range toks {
			if tok.Pos != pos {
				t.Fatalf("gap: token at %d, expected %d", tok.Pos, pos)
			}
			if tok.End < tok.Pos || tok.End > len(s) {
				t.Fatalf("bad range [%d,%d) in %d-byte input", tok.Pos, tok.End, len(s))
			}
			pos = tok.End
		}
		if pos != len(s) {
			t.Fatalf("tokens cover %d of %d bytes", pos, len(s))
		}
	})
}

// FuzzTokenizeXML: same contract for the XML tokenizer.
func FuzzTokenizeXML(f *testing.F) {
	for _, s := range []string{
		"",
		"<?xml version=\"1.0\"?><r/>",
		"<A><b/></A>",
		"<![CDATA[x]]>",
		"<![CDATA[unterminated",
		"<r>text</wrong></r>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := tokenizeXML(s)
		pos := 0
		for _, tok := range toks {
			if tok.Pos != pos || tok.End < tok.Pos || tok.End > len(s) {
				t.Fatalf("bad range [%d,%d) at expected %d", tok.Pos, tok.End, pos)
			}
			pos = tok.End
		}
		if pos != len(s) {
			t.Fatalf("tokens cover %d of %d bytes", pos, len(s))
		}
	})
}

// FuzzDecodeEntities: never panics; output of entity-free input is
// identity; output never contains a valid named entity it should have
// decoded... (we settle for the crash-freedom and length sanity parts).
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "&&&", "&unknown;", "a&b", "&#xffffffff;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeEntities(s)
		// Decoding only ever shrinks or preserves byte length for ASCII
		// entities, but multi-byte replacements (—, ©) can grow it; allow
		// a generous bound.
		if len(out) > 4*len(s)+4 {
			t.Fatalf("output blew up: %d from %d bytes", len(out), len(s))
		}
	})
}
