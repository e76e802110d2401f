package template

import (
	"crypto/sha256"
	"strings"
	"sync"

	"repro/internal/htmlparse"
	"repro/internal/tagtree"
)

// FingerprintDoc fingerprints a raw HTML document without building the tag
// tree: a single tag-only pass that skips text, entity decoding, and
// attribute materialization. The tag grammar comes from the htmlparse scan
// core (the same primitives the arena tokenizer runs on), and the balancing
// rules replicate tagtree.Normalize (void elements, implied closings, orphan
// end-tags, raw-text content). It returns exactly what
// FingerprintTree(tagtree.Parse(doc)) returns, at a small fraction of the
// cost — this is what lets a template hit undercut full discovery by ~50×.
func FingerprintDoc(doc string) Fingerprint {
	fp, _ := scanDoc(doc)
	return fp
}

// docShape is what the tree builder's resource limits measure, counted by
// the scanner the way tagtree counts them: every element (voids and
// self-closing tags included) is a node, and depth is the deepest nesting
// of elements that take children.
type docShape struct {
	nodes, depth int
}

// exceeds reports whether a tree of this shape breaks lim's node or depth
// bound (zero bounds are unlimited, as in tagtree.Limits).
func (d docShape) exceeds(lim tagtree.Limits) bool {
	return (lim.MaxNodes > 0 && d.nodes > lim.MaxNodes) ||
		(lim.MaxDepth > 0 && d.depth > lim.MaxDepth)
}

// scanDoc is FingerprintDoc plus the document's tree shape.
func scanDoc(doc string) (Fingerprint, docShape) {
	sc := scanPool.Get().(*docScanner)
	sc.reset()
	sc.scan(doc)
	fp := sc.fingerprint()
	shape := sc.shape
	scanPool.Put(sc)
	return fp, shape
}

var scanPool = sync.Pool{New: func() any { return newDocScanner() }}

// shapeEvent packs one structural event: nameID<<1 for an element opening,
// the constant eventClose for a region closing.
type shapeEvent int32

const eventClose shapeEvent = 1

func openEvent(id int32) shapeEvent { return shapeEvent(id << 1) }

// elemRec is one completed element region: its event range (half-open) and
// its fan-out, collected so the highest-fan-out winner can be picked after
// the scan without building nodes.
type elemRec struct {
	enter, end int32
	fan        int32
}

type docScanner struct {
	events  []shapeEvent
	stack   []int32 // open element name IDs, innermost last
	open    []int32 // enter-event index per open element
	fan     []int32 // child count per open element
	elems   []elemRec
	rootFan int32
	shape   docShape

	nbuf []byte // lowercased tag-name scratch
	sbuf []byte // hash serialization scratch

	// extra interns tag names outside the built-in table, per scan.
	extra      map[string]int32
	extraNames []string
}

func newDocScanner() *docScanner {
	return &docScanner{
		events: make([]shapeEvent, 0, 256),
		stack:  make([]int32, 0, 32),
		open:   make([]int32, 0, 32),
		fan:    make([]int32, 0, 32),
		elems:  make([]elemRec, 0, 128),
		nbuf:   make([]byte, 0, 16),
		sbuf:   make([]byte, 0, 1024),
	}
}

// maxRetained bounds the pooled buffers: a pathological document must not
// pin its peak allocation in the pool forever.
const maxRetained = 1 << 16

func (sc *docScanner) reset() {
	if cap(sc.events) > maxRetained {
		sc.events = make([]shapeEvent, 0, 256)
		sc.elems = make([]elemRec, 0, 128)
	}
	sc.events = sc.events[:0]
	sc.stack = sc.stack[:0]
	sc.open = sc.open[:0]
	sc.fan = sc.fan[:0]
	sc.elems = sc.elems[:0]
	sc.rootFan = 0
	sc.shape = docShape{}
	if sc.extra != nil {
		sc.extra = nil
		sc.extraNames = sc.extraNames[:0]
	}
}

func (sc *docScanner) name(id int32) string {
	if int(id) < len(baseNames) {
		return baseNames[id]
	}
	return sc.extraNames[int(id)-len(baseNames)]
}

// intern returns the ID of the lowercased tag name raw.
func (sc *docScanner) intern(raw string) int32 {
	if id, ok := baseID(raw); ok {
		return id
	}
	sc.nbuf = sc.nbuf[:0]
	for i := 0; i < len(raw); i++ {
		sc.nbuf = append(sc.nbuf, lowerASCII(raw[i]))
	}
	if id, ok := sc.extra[string(sc.nbuf)]; ok {
		return id
	}
	if sc.extra == nil {
		sc.extra = make(map[string]int32, 4)
	}
	name := string(sc.nbuf)
	id := int32(len(baseNames) + len(sc.extraNames))
	sc.extraNames = append(sc.extraNames, name)
	sc.extra[name] = id
	return id
}

// baseID looks the tag name raw up in the built-in table, ignoring ASCII
// case. Every start and end tag takes this path, so it hashes and compares
// raw in place rather than lowercasing a copy for a map lookup.
func baseID(raw string) (int32, bool) {
	const mask = uint32(len(baseSlots) - 1)
	for i := nameHash(raw) & mask; ; i = (i + 1) & mask {
		slot := baseSlots[i]
		if slot == 0 {
			return 0, false
		}
		if n := baseNames[slot-1]; len(n) == len(raw) && equalLowerASCII(raw, n) {
			return slot - 1, true
		}
	}
}

// nameHash is FNV-1a over the ASCII-lowercased bytes of name.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(lowerASCII(name[i]))) * 16777619
	}
	return h
}

// equalLowerASCII reports whether raw, ASCII-lowercased, equals lower, a
// lowercase name of the same length.
func equalLowerASCII(raw, lower string) bool {
	for i := 0; i < len(raw); i++ {
		if lowerASCII(raw[i]) != lower[i] {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// noteChild credits a new element to its parent's fan-out (or the synthetic
// root's when the stack is empty) and counts it as a node.
func (sc *docScanner) noteChild() {
	sc.shape.nodes++
	if n := len(sc.fan); n > 0 {
		sc.fan[n-1]++
	} else {
		sc.rootFan++
	}
}

func (sc *docScanner) push(id int32) {
	sc.noteChild()
	sc.open = append(sc.open, int32(len(sc.events)))
	sc.stack = append(sc.stack, id)
	sc.fan = append(sc.fan, 0)
	sc.events = append(sc.events, openEvent(id))
	sc.shape.depth = max(sc.shape.depth, len(sc.stack))
}

// pop closes the innermost open element, recording its completed region.
func (sc *docScanner) pop() {
	top := len(sc.stack) - 1
	sc.events = append(sc.events, eventClose)
	sc.elems = append(sc.elems, elemRec{
		enter: sc.open[top],
		end:   int32(len(sc.events)),
		fan:   sc.fan[top],
	})
	sc.stack = sc.stack[:top]
	sc.open = sc.open[:top]
	sc.fan = sc.fan[:top]
}

// leaf records a childless region (void element or self-closing tag).
func (sc *docScanner) leaf(id int32) {
	sc.noteChild()
	enter := int32(len(sc.events))
	sc.events = append(sc.events, openEvent(id), eventClose)
	sc.elems = append(sc.elems, elemRec{enter: enter, end: enter + 2})
}

// scan runs the tag-only pass over doc on the htmlparse scan core
// (MarkupStartsAt / ScanDeclarationSpans / ScanPISpans / ScanTagAttrs /
// RawTextEnd), so the grammar — what counts as markup, how comments and
// bogus comments terminate, how quoted attribute values hide '>', when a
// start tag is self-closing, and how raw-text content ends — is the
// tokenizer's own, not a replica. The balancing decisions mirror
// tagtree.Normalize: voids and self-closing tags are leaves, arriving tags
// imply closings per the HTML 3.2/4.0 optional-end-tag rules (stopped at a
// table boundary), orphan end-tags are dropped, and EOF closes everything.
func (sc *docScanner) scan(doc string) {
	i, n := 0, len(doc)
	for i < n {
		if doc[i] != '<' {
			j := strings.IndexByte(doc[i:], '<')
			if j < 0 {
				break
			}
			i += j
		}
		if !htmlparse.MarkupStartsAt(doc, i) {
			// A lone '<' that is not markup: character data.
			i++
			continue
		}
		switch doc[i+1] {
		case '!':
			_, _, i, _ = htmlparse.ScanDeclarationSpans(doc, i)
		case '?':
			_, _, i = htmlparse.ScanPISpans(doc, i)
		case '/':
			i = sc.endTag(doc, i)
		default:
			i = sc.startTag(doc, i)
		}
	}
	for len(sc.stack) > 0 {
		sc.pop()
	}
}

// skipPast returns the index just past the first b at or after from, or
// len(s) when absent (mirrors the tokenizer's indexFrom).
func skipPast(s string, from int, b byte) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i + 1
	}
	return len(s)
}

func (sc *docScanner) endTag(s string, i int) int {
	start := i + 2
	j := htmlparse.NameEnd(s, start)
	id := sc.intern(s[start:j])
	j = skipPast(s, j, '>')
	if isVoidID(id) {
		return j // </br> and friends: orphan by definition.
	}
	match := -1
	for k := len(sc.stack) - 1; k >= 0; k-- {
		if sc.stack[k] == id {
			match = k
			break
		}
	}
	if match < 0 {
		return j // no corresponding start-tag: dropped.
	}
	for len(sc.stack) > match {
		sc.pop()
	}
	return j
}

func (sc *docScanner) startTag(s string, i int) int {
	start := i + 1
	j := htmlparse.NameEnd(s, start)
	id := sc.intern(s[start:j])
	// nil visit: the fingerprint only needs structure, so attribute spans are
	// scanned (for the quote-aware '>' rules) but never materialized.
	j, selfClosing := htmlparse.ScanTagAttrs(s, j, nil)

	if isVoidID(id) {
		sc.leaf(id)
		return j
	}
	if closes := autoCloseOf(id); closes != nil {
		for len(sc.stack) > 0 {
			top := sc.stack[len(sc.stack)-1]
			if !contains(closes, top) || top == tableID {
				break
			}
			sc.pop()
		}
	}
	if selfClosing {
		sc.leaf(id)
		return j
	}
	sc.push(id)
	if isRawTextID(id) {
		// Raw-text content runs to the first case-insensitive "</name" (no
		// delimiter check after the name, exactly like the tokenizer); the
		// end-tag itself is then parsed by the main loop.
		j = htmlparse.RawTextEnd(s, j, sc.name(id))
	}
	return j
}

func contains(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// fingerprint picks the highest-fan-out region (HighestFanOut's exact tie
// rules: the first element in document order whose fan-out reaches the
// maximum, the synthetic root only when no element matches its fan-out) and
// hashes its shape serialization.
func (sc *docScanner) fingerprint() Fingerprint {
	best := elemRec{fan: -1}
	for _, e := range sc.elems {
		if e.fan > best.fan {
			best = e
		} else if e.fan == best.fan && e.enter < best.enter {
			best = e
		}
	}
	buf := sc.sbuf[:0]
	if best.fan < sc.rootFan {
		// The synthetic root wins: its shape wraps every top-level event.
		buf = append(buf, shapeOpen)
		buf = append(buf, rootName...)
		buf = append(buf, shapeSep)
		buf = sc.appendEvents(buf, 0, int32(len(sc.events)))
		buf = append(buf, shapeClose)
	} else {
		buf = sc.appendEvents(buf, best.enter, best.end)
	}
	if cap(buf) <= maxRetained {
		sc.sbuf = buf
	}
	return sha256.Sum256(buf)
}

func (sc *docScanner) appendEvents(buf []byte, from, to int32) []byte {
	for _, ev := range sc.events[from:to] {
		if ev == eventClose {
			buf = append(buf, shapeClose)
			continue
		}
		buf = append(buf, shapeOpen)
		buf = append(buf, sc.name(int32(ev>>1))...)
		buf = append(buf, shapeSep)
	}
	return buf
}

// rootName matches the tagtree synthetic document root.
const rootName = "#document"

// The built-in name table: fixed IDs shared by every scan so the hot path
// never allocates a tag name. It must cover every name with normalization
// semantics (voids, raw-text elements, optional-end-tag participants); other
// common names are included purely to dodge the per-scan intern path.
var baseNames = []string{
	// Voids (htmlparse.IsVoid must hold for each).
	"area", "base", "basefont", "bgsound", "br", "col", "embed", "frame",
	"hr", "img", "input", "isindex", "keygen", "link", "meta", "param",
	"source", "spacer", "track", "wbr",
	// Raw-text elements (htmlparse.IsRawText).
	"script", "style", "textarea", "title", "xmp", "plaintext",
	// Optional-end-tag participants (tagtree's autoClose) and the table
	// scope barrier.
	"li", "p", "dt", "dd", "option", "tr", "td", "th", "thead", "tbody",
	"tfoot", "colgroup", "table",
	// Common structural names.
	"html", "head", "body", "div", "span", "a", "b", "i", "u", "em",
	"strong", "font", "center", "ul", "ol", "dl", "h1", "h2", "h3", "h4",
	"h5", "h6", "form", "select", "blockquote", "pre", "tt", "small",
	"big", "strike", "code", "address", "caption", "label", "fieldset",
	"article", "section", "nav", "header", "footer", "main", "aside",
}

var (
	// baseSlots is an open-addressed hash table over baseNames, probed by
	// baseID: a slot holds a name's ID plus one, or 0 when empty. It stays
	// under half full.
	baseSlots [256]int32
	baseVoid  []bool
	baseRaw   []bool
	// baseAutoClose holds, by base ID, the open element IDs an arriving
	// start tag of that name implicitly closes.
	baseAutoClose [][]int32
	tableID       int32
)

func init() {
	baseVoid = make([]bool, len(baseNames))
	baseRaw = make([]bool, len(baseNames))
	baseAutoClose = make([][]int32, len(baseNames))
	if 2*len(baseNames) > len(baseSlots) {
		panic("template: base name table over half full")
	}
	for i, n := range baseNames {
		if _, dup := baseID(n); dup {
			panic("template: duplicate base name " + n)
		}
		slot := nameHash(n) & uint32(len(baseSlots)-1)
		for baseSlots[slot] != 0 {
			slot = (slot + 1) & uint32(len(baseSlots)-1)
		}
		baseSlots[slot] = int32(i) + 1
		baseVoid[i] = htmlparse.IsVoid(n)
		baseRaw[i] = htmlparse.IsRawText(n)
	}
	// Every name the normalization rules special-case must be in the base
	// table, or the ID predicates below would miss it.
	for _, n := range []string{
		"area", "base", "basefont", "bgsound", "br", "col", "embed",
		"frame", "hr", "img", "input", "isindex", "keygen", "link", "meta",
		"param", "source", "spacer", "track", "wbr",
	} {
		if !htmlparse.IsVoid(n) {
			panic("template: base table lists non-void " + n)
		}
	}
	tableID, _ = baseID("table")
	for arriving, closes := range map[string][]string{
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
	} {
		var ids []int32
		for _, c := range closes {
			id, _ := baseID(c)
			ids = append(ids, id)
		}
		id, _ := baseID(arriving)
		baseAutoClose[id] = ids
	}
}

func autoCloseOf(id int32) []int32 {
	if int(id) < len(baseAutoClose) {
		return baseAutoClose[id]
	}
	return nil
}

func isVoidID(id int32) bool    { return int(id) < len(baseVoid) && baseVoid[id] }
func isRawTextID(id int32) bool { return int(id) < len(baseRaw) && baseRaw[id] }
