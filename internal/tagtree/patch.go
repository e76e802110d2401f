package tagtree

import (
	"strings"

	"repro/internal/htmlparse"
)

// PatchDocument performs Appendix A step 2 *literally*: it returns a copy of
// the document with "useless" tags (comments, doctypes, and end-tags that
// have no corresponding start-tag) removed and every "missing" end-tag
// textually inserted, so that the result is a balanced document.
//
// The paper's tag-tree construction runs in two passes over this patched
// text ("the updated document is discarded once the tag tree is built");
// Parse builds the same tree in a single pass over the token stream without
// materializing the patch. PatchDocument exists for fidelity and for tests:
// Parse(PatchDocument(d)) and Parse(d) must produce structurally identical
// trees (see TestPatchDocumentEquivalence).
func PatchDocument(doc string) string {
	norm := Normalize(htmlparse.NewArena().TokenizeHTML(doc))
	var b strings.Builder
	b.Grow(len(doc) + len(doc)/8)
	for _, tok := range norm {
		switch {
		case tok.Synthetic:
			b.WriteString("</" + tok.Name + ">")
		case tok.Type == htmlparse.Text:
			// Re-emit the original raw slice so entities survive verbatim.
			b.WriteString(doc[tok.Pos:tok.End])
		default:
			b.WriteString(doc[tok.Pos:tok.End])
		}
	}
	return b.String()
}

// Equal reports whether two trees have the same structure: matching names,
// child shapes, and region text equal modulo whitespace and chunk
// boundaries. Chunk boundaries are ignored because removing a useless tag
// from between two text runs (Appendix A step 2) fuses them — the paper's
// patched document genuinely contains the fused text. Positions are not
// compared — a patched document shifts offsets.
func Equal(a, b *Tree) bool {
	return nodesEqual(a.Root, b.Root)
}

func nodesEqual(a, b *Node) bool {
	if a.Name != b.Name || len(a.Children) != len(b.Children) {
		return false
	}
	if collapseChunks(a.Chunks) != collapseChunks(b.Chunks) {
		return false
	}
	for i := range a.Children {
		if !nodesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func collapseChunks(chunks []Chunk) string {
	var b strings.Builder
	for _, c := range chunks {
		b.WriteString(c.Text)
	}
	return CollapseSpace(b.String())
}
