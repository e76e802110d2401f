package htmlparse

import "strings"

// elementNames is the static HTML element-name table. It covers every name
// with normalization semantics (voids, raw-text elements, optional-end-tag
// participants, the table scope barrier) plus common structural names. A
// name's index is its ID; the template scanner numbers tags by it, and
// CanonicalName hands out its strings so answers never hold a document.
var elementNames = []string{
	// Voids (IsVoid holds for each).
	"area", "base", "basefont", "bgsound", "br", "col", "embed", "frame",
	"hr", "img", "input", "isindex", "keygen", "link", "meta", "param",
	"source", "spacer", "track", "wbr",
	// Raw-text elements (IsRawText).
	"script", "style", "textarea", "title", "xmp", "plaintext",
	// Optional-end-tag participants and the table scope barrier.
	"li", "p", "dt", "dd", "option", "tr", "td", "th", "thead", "tbody",
	"tfoot", "colgroup", "table",
	// Common structural names.
	"html", "head", "body", "div", "span", "a", "b", "i", "u", "em",
	"strong", "font", "center", "ul", "ol", "dl", "h1", "h2", "h3", "h4",
	"h5", "h6", "form", "select", "blockquote", "pre", "tt", "small",
	"big", "strike", "code", "address", "caption", "label", "fieldset",
	"article", "section", "nav", "header", "footer", "main", "aside",
}

// impliedCloses holds the HTML 3.2/4.0 optional-end-tag rules 1998-era
// documents rely on (<li> items, <p> runs, table cells without </td>): an
// arriving start-tag implicitly closes the innermost open element while
// that element is one of the listed names. They realize the paper's rule
// (Appendix A) that a region with no end-tag ends "just before the next
// tag" for the tags where that behaviour is standard.
var impliedCloses = map[string][]string{
	"li":       {"li"},
	"p":        {"p"},
	"dt":       {"dt", "dd"},
	"dd":       {"dt", "dd"},
	"option":   {"option"},
	"tr":       {"td", "th", "tr"},
	"td":       {"td", "th"},
	"th":       {"td", "th"},
	"thead":    {"td", "th", "tr"},
	"tbody":    {"td", "th", "tr", "thead"},
	"tfoot":    {"td", "th", "tr", "tbody"},
	"colgroup": {"colgroup"},
}

// scopeBarriers stop the implied-close search: an arriving <tr> must not
// close a <td> of an outer table.
var scopeBarriers = []string{"table"}

// ImpliedCloses returns the optional-end-tag rules: each arriving start-tag
// name and the open element names it implicitly closes. ScopeBarriers
// returns the element names that stop that search. Every name in both has
// an element ID. The normalizer and the fingerprint scanner each build
// their own lookup from them at init; neither result may be modified.
func ImpliedCloses() map[string][]string { return impliedCloses }
func ScopeBarriers() []string            { return scopeBarriers }

// nameSlots is an open-addressed hash table over elementNames, probed by
// ElementID: a slot holds a name's ID plus one, or 0 when empty. It stays
// under half full.
var nameSlots [256]int32

func init() {
	if 2*len(elementNames) > len(nameSlots) {
		panic("htmlparse: element name table over half full")
	}
	for i, n := range elementNames {
		if _, dup := ElementID(n); dup {
			panic("htmlparse: duplicate element name " + n)
		}
		slot := nameHash(n) & uint32(len(nameSlots)-1)
		for nameSlots[slot] != 0 {
			slot = (slot + 1) & uint32(len(nameSlots)-1)
		}
		nameSlots[slot] = int32(i) + 1
	}
}

// ElementNames returns the element-name table in ID order.
func ElementNames() []string {
	return append([]string(nil), elementNames...)
}

// ElementID looks the tag name raw up in the element-name table, ignoring
// ASCII case. It hashes and compares raw in place rather than lowercasing a
// copy, so a per-tag caller allocates nothing.
func ElementID(raw string) (int32, bool) {
	const mask = uint32(len(nameSlots) - 1)
	for i := nameHash(raw) & mask; ; i = (i + 1) & mask {
		slot := nameSlots[i]
		if slot == 0 {
			return 0, false
		}
		if n := elementNames[slot-1]; len(n) == len(raw) && equalLowerASCII(raw, n) {
			return slot - 1, true
		}
	}
}

// CanonicalName returns a copy of name that shares no memory with it: the
// table's own string when name is exactly a table entry, else a fresh
// copy. Names sliced from a request document go through it before they
// outlive the request, so a kept answer never pins the document.
func CanonicalName(name string) string {
	if id, ok := ElementID(name); ok && elementNames[id] == name {
		return elementNames[id]
	}
	return strings.Clone(name)
}

// nameHash is FNV-1a over the ASCII-lowercased bytes of name.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(LowerASCII(name[i]))) * 16777619
	}
	return h
}

// equalLowerASCII reports whether raw, ASCII-lowercased, equals lower, a
// lowercase name of the same length.
func equalLowerASCII(raw, lower string) bool {
	for i := 0; i < len(raw); i++ {
		if LowerASCII(raw[i]) != lower[i] {
			return false
		}
	}
	return true
}

// LowerASCII lowercases one ASCII letter and passes any other byte through.
func LowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}
