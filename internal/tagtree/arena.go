package tagtree

import (
	"context"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
)

// Arena is the memory every tag tree is built in: the tokenizer slabs (via
// htmlparse.Arena), the normalized token buffer, the node slab, and the
// children/chunk/event slabs. A pooled arena reuses them across parses
// instead of leaving them to the garbage collector per document: acquire
// one with AcquireArena, pass it to ParseArenaContext (or
// core.Options.Arena), and Release it when the request's results have been
// copied out. A nil arena means a fresh one that never joins the pool, so
// its tree lives as long as the caller holds it.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - A Tree built on an arena — its nodes, events, chunks, and attribute
//     windows — is valid only until the arena's next parse or Release.
//     Anything that outlives the request (wire responses, template-store
//     entries, caches) must deep-copy first; every serving layer in this
//     repo already does.
//   - Tree strings alias the input document; the document must stay
//     immutable while the Tree is alive.
//   - An Arena is single-goroutine; give each worker its own.
//
// Release is panic-safe by construction: it is idempotent, so callers hang
// it on a defer and a mid-parse panic (see the htmlparse/arena fault hook)
// still returns the entry to the pool as the stack unwinds.
type Arena struct {
	tok *htmlparse.Arena

	norm  []htmlparse.Token // normalized (balanced) token stream
	stack []string          // normalize's open-element stack

	// Node storage: node k of a parse is nodes[k], index 0 the synthetic
	// root. The slab is sized from the counting pass before the building
	// pass takes any node pointer, so pointers stay stable within a parse.
	nodes     []Node
	highNodes int // high-water node count in nodes since last scrub

	// Per-parse slabs. children and chunks are carved into per-node windows
	// between the counting and building passes; events backs Tree.Events.
	children []*Node
	chunks   []Chunk
	events   []Event

	// Counting-pass scratch: childOffs/chunkOffs hold per-node counts during
	// pass 0 and prefix-sum offsets during pass 1 (entry i+1 is node i's
	// window end); seqStack tracks the open node sequence numbers.
	childOffs []int
	chunkOffs []int
	seqStack  []int

	tree     Tree
	released bool
}

// Retention bounds: what one pooled arena may keep between requests. A
// pathological document must not pin its peak footprint in the pool forever.
const (
	maxRetainedNodes  = 1 << 15
	maxRetainedTokens = 1 << 16
	maxRetainedSlab   = 1 << 16
)

var arenaPool = sync.Pool{New: func() any { return newArena() }}

func newArena() *Arena {
	return &Arena{tok: htmlparse.NewArena()}
}

// AcquireArena returns a ready arena from the shared pool.
func AcquireArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.released = false
	return a
}

// Release scrubs document references out of the arena and returns it to the
// pool. It is idempotent: the second and later calls do nothing, so it is
// safe (and intended) to call from a defer that may race a panic path.
func (a *Arena) Release() {
	if a == nil || a.released {
		return
	}
	a.released = true
	a.scrub()
	arenaPool.Put(a)
}

// scrub drops every reference into request documents and trims capacity
// beyond the retention bounds.
func (a *Arena) scrub() {
	a.tok.Trim()
	if cap(a.norm) > maxRetainedTokens {
		a.norm = nil
	} else {
		norm := a.norm[:cap(a.norm)]
		for i := range norm {
			norm[i] = htmlparse.Token{}
		}
		a.norm = a.norm[:0]
	}
	if cap(a.stack) > maxRetainedSlab {
		a.stack = nil
	} else {
		stack := a.stack[:cap(a.stack)]
		for i := range stack {
			stack[i] = ""
		}
		a.stack = a.stack[:0]
	}
	if cap(a.nodes) > maxRetainedNodes {
		a.nodes = nil
	} else {
		clear(a.nodes[:a.highNodes])
	}
	a.highNodes = 0
	if cap(a.children) > maxRetainedSlab {
		a.children = nil
	} else {
		ch := a.children[:cap(a.children)]
		for i := range ch {
			ch[i] = nil
		}
		a.children = a.children[:0]
	}
	if cap(a.chunks) > maxRetainedSlab {
		a.chunks = nil
	} else {
		ck := a.chunks[:cap(a.chunks)]
		for i := range ck {
			ck[i] = Chunk{}
		}
		a.chunks = a.chunks[:0]
	}
	if cap(a.events) > maxRetainedSlab {
		a.events = nil
	} else {
		ev := a.events[:cap(a.events)]
		for i := range ev {
			ev[i] = Event{}
		}
		a.events = a.events[:0]
	}
	a.childOffs = a.childOffs[:0]
	a.chunkOffs = a.chunkOffs[:0]
	a.seqStack = a.seqStack[:0]
	a.tree = Tree{}
}

// ensureNodes sizes the node slab to hold exactly n nodes. A slab too small
// is replaced outright: no pointer into it survives from an earlier parse.
func (a *Arena) ensureNodes(n int) {
	if cap(a.nodes) < n {
		a.nodes = make([]Node, n)
		a.highNodes = 0
	}
	a.nodes = a.nodes[:n]
	a.highNodes = max(a.highNodes, n)
}

// capTo returns s truncated to length 0 with capacity at least n.
func capTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// ParseArena is ParseArenaContext with a background context and no limits.
func ParseArena(doc string, a *Arena) *Tree {
	return must(ParseArenaContext(context.Background(), doc, Limits{}, a, nil))
}

// must unwraps a parse that cannot fail: a background context never
// cancels, zero Limits never trip, and no faults are armed.
func must(t *Tree, err error) *Tree {
	if err != nil {
		panic("tagtree: parse failed without limits: " + err.Error())
	}
	return t
}

// ParseArenaContext is ParseContext on arena a: tokens, nodes, and event
// buffers come from the arena, and a warm arena parses without allocating.
// The htmlparse/arena fault hook fires once per parse, after tokenizing and
// before the tree is built. A nil arena parses on a fresh, never-pooled one.
func ParseArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	return parseOn(ctx, doc, lim, a, faults, false)
}

// ParseXMLArenaContext is the XML counterpart of ParseArenaContext.
func ParseXMLArenaContext(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set) (*Tree, error) {
	return parseOn(ctx, doc, lim, a, faults, true)
}

// parseOn parses on a, or on a fresh arena when a is nil. The fresh arena's
// tree header is copied out so the tree pins only what it references (nodes,
// events, chunks, attributes), not the token slabs it was built from.
func parseOn(ctx context.Context, doc string, lim Limits, a *Arena, faults *faultinject.Set, xml bool) (*Tree, error) {
	if a != nil {
		return a.parse(ctx, doc, lim, faults, xml)
	}
	t, err := newArena().parse(ctx, doc, lim, faults, xml)
	if err != nil {
		return nil, err
	}
	own := *t
	return &own, nil
}

// parse tokenizes doc with the HTML or XML grammar, normalizes the tokens,
// and builds the tree, all on a's slabs.
func (a *Arena) parse(ctx context.Context, doc string, lim Limits, faults *faultinject.Set, xml bool) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var toks []htmlparse.Token
	if xml {
		toks = a.tok.TokenizeXML(doc)
	} else {
		toks = a.tok.TokenizeHTML(doc)
	}
	// The hook fires mid-parse — tokenizer slabs already hold this document —
	// so chaos tests prove a panic here still repools a dirty arena.
	if err := faults.FireCtx(ctx, "htmlparse/arena"); err != nil {
		return nil, err
	}
	// Normalizing adds only the missing end-tags: a quarter on top of the
	// token count sizes a fresh arena's buffer in one allocation.
	a.norm = capTo(a.norm, len(toks)+len(toks)/4)
	if xml {
		a.norm, a.stack = normalizeXMLInto(toks, a.norm, a.stack[:0])
		return a.build(ctx, a.norm, neverVoid, lim)
	}
	a.norm, a.stack = normalizeHTMLInto(toks, a.norm, a.stack[:0])
	return a.build(ctx, a.norm, htmlparse.IsVoid, lim)
}

var neverVoid = func(string) bool { return false }

// buildCheckEvery is how many tokens the build loop processes between
// context checks — rare enough to stay off the profile, frequent enough
// that cancellation lands within microseconds on real documents.
const buildCheckEvery = 1024

// build constructs the tree from an already-balanced token stream. isVoid
// reports element names that never have end-tags (HTML's void set; always
// false for XML, where only explicit self-closing counts). Pass 0 counts
// nodes, per-node children/chunks, and events, honoring ctx and enforcing
// lim's depth and node bounds as it goes, so a pathological document fails
// fast instead of exhausting memory first; the counts become carved
// sub-slices of the shared slabs; and pass 1 re-walks the tokens filling
// everything in within capacity — zero allocations once the arena is warm.
func (a *Arena) build(ctx context.Context, norm []htmlparse.Token, isVoid func(string) bool, lim Limits) (*Tree, error) {
	// Pass 0: counts. seqStack holds open node sequence numbers (root = 0);
	// childOffs/chunkOffs get one entry per node, indexed by sequence.
	a.seqStack = append(a.seqStack[:0], 0)
	a.childOffs = append(a.childOffs[:0], 0)
	a.chunkOffs = append(a.chunkOffs[:0], 0)
	nodes, depth, events := 0, 0, 0
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
			a.chunkOffs[a.seqStack[len(a.seqStack)-1]]++
			events++

		case htmlparse.StartTag:
			nodes++
			if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, errTooManyNodes(lim.MaxNodes)
			}
			a.childOffs[a.seqStack[len(a.seqStack)-1]]++
			a.childOffs = append(a.childOffs, 0)
			a.chunkOffs = append(a.chunkOffs, 0)
			events++
			if tok.SelfClosing || isVoid(tok.Name) {
				continue
			}
			depth++
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return nil, errTooDeep(lim.MaxDepth)
			}
			a.seqStack = append(a.seqStack, nodes)

		case htmlparse.EndTag:
			if len(a.seqStack) == 1 {
				continue
			}
			events++
			a.seqStack = a.seqStack[:len(a.seqStack)-1]
			depth--
		}
	}

	// Prefix sums: childOffs[s]/chunkOffs[s] become node s's window start;
	// the appended sentinel makes entry s+1 its end.
	coff, koff := 0, 0
	for s := 0; s <= nodes; s++ {
		c := a.childOffs[s]
		a.childOffs[s] = coff
		coff += c
		k := a.chunkOffs[s]
		a.chunkOffs[s] = koff
		koff += k
	}
	a.childOffs = append(a.childOffs, coff)
	a.chunkOffs = append(a.chunkOffs, koff)

	a.ensureNodes(nodes + 1)
	a.children = capTo(a.children, coff)
	a.chunks = capTo(a.chunks, koff)
	a.events = capTo(a.events, events)

	// Pass 1: fill the carved windows in place.
	t := &a.tree
	root := &a.nodes[0]
	*root = Node{Name: "#document"}
	root.Children = a.carveChildren(0)
	root.Chunks = a.carveChunks(0)
	t.Root = root
	t.Events = a.events
	cur, seq := root, 0
	for _, tok := range norm {
		switch tok.Type {
		case htmlparse.Text:
			if tok.Data == "" {
				continue
			}
			cur.Chunks = append(cur.Chunks, Chunk{Text: tok.Data, Pos: tok.Pos})
			t.Events = append(t.Events, Event{Kind: EventText, Text: tok.Data, Pos: tok.Pos})

		case htmlparse.StartTag:
			seq++
			n := &a.nodes[seq]
			*n = Node{
				Name:       tok.Name,
				Attrs:      tok.Attrs,
				Parent:     cur,
				StartPos:   tok.Pos,
				EndPos:     tok.End,
				firstEvent: len(t.Events),
			}
			n.Children = a.carveChildren(seq)
			n.Chunks = a.carveChunks(seq)
			cur.Children = append(cur.Children, n)
			t.Events = append(t.Events, Event{Kind: EventStart, Node: n, Pos: tok.Pos})
			if tok.SelfClosing || isVoid(tok.Name) {
				n.lastEvent = len(t.Events)
				continue
			}
			cur = n

		case htmlparse.EndTag:
			if cur == root {
				continue
			}
			t.Events = append(t.Events, Event{Kind: EventEnd, Node: cur, Pos: tok.Pos})
			cur.EndPos = tok.End
			cur.lastEvent = len(t.Events)
			cur = cur.Parent
		}
	}
	root.firstEvent = 0
	root.lastEvent = len(t.Events)
	if n := len(norm); n > 0 {
		root.EndPos = norm[n-1].End
	}
	countSubtreeTags(root)
	return t, nil
}

// carveChildren returns node seq's empty children window inside the shared
// slab; appends stay within its capacity.
func (a *Arena) carveChildren(seq int) []*Node {
	s, e := a.childOffs[seq], a.childOffs[seq+1]
	return a.children[s:s:e]
}

// carveChunks is carveChildren for text chunks.
func (a *Arena) carveChunks(seq int) []Chunk {
	s, e := a.chunkOffs[seq], a.chunkOffs[seq+1]
	return a.chunks[s:s:e]
}
