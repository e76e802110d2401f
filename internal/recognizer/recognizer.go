// Package recognizer implements the Constant/Keyword Recognizer of the
// paper's Figure 1 pipeline: it applies the matching rules generated from an
// application ontology to the plain text of a document and produces the
// Data-Record Table — one row per recognized keyword or constant, carrying a
// descriptor, the matched string, and its position, ordered by position.
//
// The OM heuristic (§4.5) reads its occurrence counts from this table, and
// the Database-Instance Generator partitions it at the discovered separator
// positions to build records.
//
// Building the table is the whole cost of an ontology-armed discovery, so
// the scan is candidate-driven: each distinct pattern's compiled form
// (ontology.CompiledPattern) tells it which chunks can hold a match and at
// which positions one can start, and only there does it run the pattern's
// anchored program. The result is exactly what running every rule's
// unanchored pattern with FindAllStringIndex over every chunk would give;
// reference_test.go keeps that scan as the test oracle.
package recognizer

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/tagtree"
)

// Entry is one row of the Data-Record Table.
type Entry struct {
	// ObjectSet names the object set whose rule matched.
	ObjectSet string
	// Kind distinguishes keyword matches from constant (value) matches.
	Kind ontology.RuleKind
	// String is the matched text.
	String string
	// Pos is the byte offset of the match in the original document.
	Pos int
	// End is the byte offset just past the match.
	End int
}

// Descriptor renders the entry's descriptor, e.g. "DeathDate/keyword".
func (e Entry) Descriptor() string { return e.ObjectSet + "/" + e.Kind.String() }

// countKey identifies one (object set, rule kind) occurrence-count bucket.
type countKey struct {
	objectSet string
	kind      ontology.RuleKind
}

// Table is the Data-Record Table: entries sorted by position in the
// document (ties broken by object-set name, then kind).
type Table struct {
	Entries []Entry

	// counts caches per-(objectSet, kind) entry counts. Recognize fills it
	// so the OM heuristic's per-field lookups are O(1) instead of a fresh
	// scan of all entries; tables assembled by hand leave it nil and fall
	// back to the linear count.
	counts map[countKey]int
}

// Len returns the number of entries ("lines" in the paper's O(d) analysis).
func (t *Table) Len() int { return len(t.Entries) }

// CountKeyword returns the number of keyword entries for the object set.
func (t *Table) CountKeyword(objectSet string) int {
	return t.count(objectSet, ontology.KeywordRule)
}

// CountConstant returns the number of constant entries for the object set.
func (t *Table) CountConstant(objectSet string) int {
	return t.count(objectSet, ontology.ConstantRule)
}

func (t *Table) count(objectSet string, kind ontology.RuleKind) int {
	if t.counts != nil {
		return t.counts[countKey{objectSet, kind}]
	}
	n := 0
	for _, e := range t.Entries {
		if e.ObjectSet == objectSet && e.Kind == kind {
			n++
		}
	}
	return n
}

// buildCounts precomputes the per-(objectSet, kind) counts.
func (t *Table) buildCounts() {
	t.counts = make(map[countKey]int)
	for _, e := range t.Entries {
		t.counts[countKey{e.ObjectSet, e.Kind}]++
	}
}

// Slice returns the entries with Pos in [from, to), preserving order. It is
// how the Database-Instance Generator partitions the table into records. An
// empty or inverted range (to <= from) yields no entries.
func (t *Table) Slice(from, to int) []Entry {
	lo := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Pos >= from })
	hi := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Pos >= to })
	if hi < lo {
		hi = lo
	}
	return t.Entries[lo:hi]
}

// Recognize runs the ontology's matching rules over the plain text of the
// subtree rooted at n (normally the highest-fan-out subtree) and returns the
// Data-Record Table. Text chunks are matched individually — a rule never
// matches across a tag boundary, mirroring how the paper's recognizers run
// over the cleaned text between tags. Positions are document offsets.
//
// Each chunk is scanned once per distinct pattern (rules sharing a pattern
// share its match list). A pattern whose necessary literals or required
// bytes (see ontology.CompiledPattern) are absent from the chunk never
// reaches the regexp engine; otherwise the scan visits only candidate
// positions — bytes a match can start with, behind a matching literal
// prefix — and runs the pattern's anchored program there. The matches are
// exactly the leftmost-first, non-overlapping ones FindAllStringIndex would
// report. Each chunk's entries are sorted locally and chunks are visited in
// document order, which leaves the table globally sorted.
func Recognize(ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node) *Table {
	t, err := RecognizeContext(context.Background(), ont, tree, n, nil)
	if err != nil {
		// Unreachable: a background context never cancels and a nil fault
		// set never fires, so the scan cannot fail.
		panic("recognizer: Recognize failed without context or faults: " + err.Error())
	}
	return t
}

// scanCheckEvery is how many chunks the scan processes between context
// checks.
const scanCheckEvery = 64

// scanScratch is the transient per-scan state RecognizeContext reuses via a
// pool: the text-chunk gather list and one match list per distinct pattern.
// Only scratch is pooled — the returned Table's entries are always freshly
// allocated, so results never alias pooled memory.
type scanScratch struct {
	chunks []tagtree.Event
	// matches[i] holds the current chunk's [start, end) pairs, flattened,
	// for the pattern with Compiled.Index i; done[i] says they are computed.
	matches [][]int
	done    []bool
}

// size readies one match list per distinct pattern of rules.
func (s *scanScratch) size(rules []ontology.Rule) {
	patterns := 0
	for _, r := range rules {
		patterns = max(patterns, r.Compiled.Index+1)
	}
	for len(s.matches) < patterns {
		s.matches = append(s.matches, nil)
	}
	if cap(s.done) < patterns {
		s.done = make([]bool, patterns)
	}
	s.done = s.done[:patterns]
}

// maxRetainedChunks bounds a pooled scratch's kept capacity.
const maxRetainedChunks = 1 << 14

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release scrubs document references (chunk text, node pointers) and
// repools. Deferred right after Get, so a panicking scan still returns its
// entry.
func (s *scanScratch) release() {
	if cap(s.chunks) > maxRetainedChunks {
		s.chunks = nil
	} else {
		ch := s.chunks[:cap(s.chunks)]
		for i := range ch {
			ch[i] = tagtree.Event{}
		}
		s.chunks = s.chunks[:0]
	}
	for i, m := range s.matches {
		if cap(m) > maxRetainedChunks {
			s.matches[i] = nil
		}
	}
	scanScratchPool.Put(s)
}

// RecognizeContext is Recognize with cancellation and fault injection: the
// scan stops promptly when ctx is canceled, a panicking chunk scan is
// contained and surfaced as an error instead of crashing the process, and
// faults (nil in production) arms the "recognizer/chunk" hook point fired
// once per scanned chunk.
func RecognizeContext(ctx context.Context, ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node, faults *faultinject.Set) (*Table, error) {
	rules := ont.Rules()

	scr := scanScratchPool.Get().(*scanScratch)
	defer scr.release()

	chunks := scr.chunks[:0]
	for _, ev := range tree.SubtreeEvents(n) {
		if ev.Kind == tagtree.EventText {
			chunks = append(chunks, ev)
		}
	}
	scr.chunks = chunks

	scr.size(rules)

	entries, err := scanChunks(ctx, rules, chunks, scr, faults)
	if err != nil {
		return nil, err
	}
	t := &Table{Entries: entries}
	t.buildCounts()
	return t, nil
}

// scanChunks matches every rule against every chunk, honoring ctx,
// containing panics, and firing the per-chunk fault hook. Entries come back
// sorted by (Pos, ObjectSet, Kind): chunks are in ascending document order
// and their byte ranges are disjoint, so sorting each chunk's matches
// locally keeps the concatenation globally sorted.
func scanChunks(ctx context.Context, rules []ontology.Rule, chunks []tagtree.Event, scr *scanScratch, faults *faultinject.Set) (entries []Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			entries, err = nil, fmt.Errorf("recognizer: chunk scan panicked: %v", r)
		}
	}()
	for i, ev := range chunks {
		if i%scanCheckEvery == scanCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if faults != nil {
			if err := faults.FireCtx(ctx, "recognizer/chunk"); err != nil {
				return nil, err
			}
		}
		entries = scanChunk(entries, rules, ev, scr)
	}
	return entries, nil
}

// scanChunk appends one chunk's matches to entries, locally sorted. Rules
// are visited in order and each rule's matches in text order, so the
// pre-sort sequence — and with it the sorted result — does not depend on
// how the match lists were found.
func scanChunk(entries []Entry, rules []ontology.Rule, ev tagtree.Event, scr *scanScratch) []Entry {
	chunkStart := len(entries)
	clear(scr.done)
	for _, r := range rules {
		c := r.Compiled
		if !scr.done[c.Index] {
			scr.matches[c.Index] = findAll(scr.matches[c.Index][:0], c, ev.Text)
			scr.done[c.Index] = true
		}
		m := scr.matches[c.Index]
		for i := 0; i < len(m); i += 2 {
			entries = append(entries, Entry{
				ObjectSet: r.ObjectSet,
				Kind:      r.Kind,
				String:    ev.Text[m[i]:m[i+1]],
				Pos:       ev.Pos + m[i],
				End:       ev.Pos + m[i+1],
			})
		}
	}
	if len(entries)-chunkStart > 1 {
		sortEntries(entries[chunkStart:])
	}
	return entries
}

// findAll appends the [start, end) pairs of c's leftmost-first,
// non-overlapping matches in text to dst — the matches
// c.Pattern.FindAllStringIndex reports.
func findAll(dst []int, c *ontology.CompiledPattern, text string) []int {
	if !mayMatch(c, text) {
		return dst
	}
	if c.Anchored == nil {
		return findAllUnanchored(dst, c, text)
	}
	// budget caps the bytes handed to anchored runs. A chunk that exhausts
	// it is dense with candidates whose runs stretch far ahead, where
	// candidate scanning turns quadratic; it restarts with the unanchored
	// search, whose cost is linear in the chunk.
	budget := anchoredBudgetPerByte*len(text) + anchoredBudgetSlack
	chunkStart := len(dst)
	// runEnd ends the run of Alphabet bytes holding the last candidate;
	// runOK says that run contains every required byte.
	runEnd, runOK := -1, false
	for p := 0; p < len(text); {
		if c.StartASCII {
			// Every ASCII byte begins a rune, so non-candidate bytes can be
			// skipped without decoding.
			for p < len(text) && !c.Start[text[p]] {
				p++
			}
			if p == len(text) {
				break
			}
		}
		if c.Start[text[p]] && (!c.WordStart || p == 0 || !ontology.IsWordByte(text[p-1])) && c.HasPrefix(text[p:]) {
			end := len(text)
			if c.Alphabet != nil {
				if p >= runEnd {
					runEnd = p
					for runEnd < len(text) && c.Alphabet[text[runEnd]] {
						runEnd++
					}
					runOK = containsAll(text[p:runEnd], c.Required)
				}
				if !runOK {
					// No match can start anywhere in this run. runEnd
					// follows an ASCII byte, so it begins a rune.
					p = runEnd
					continue
				}
				// One byte past the run lets a trailing \b or $ see what
				// follows a match.
				end = min(end, runEnd+1)
			}
			if c.MaxLen >= 0 {
				end = min(end, p+c.MaxLen+1)
			}
			if c.MaxSpaces >= 0 {
				end = min(end, afterNthSpace(text, p, end, c.MaxSpaces+1))
			}
			if budget -= end - p; budget < 0 {
				return findAllUnanchored(dst[:chunkStart], c, text)
			}
			if m := c.Anchored.FindStringIndex(text[p:end]); m != nil {
				// Matches are never empty, so the walk always advances.
				dst = append(dst, p, p+m[1])
				p += m[1]
				continue
			}
		}
		if text[p] < utf8.RuneSelf {
			p++
		} else {
			_, w := utf8.DecodeRuneInString(text[p:])
			p += w
		}
	}
	return dst
}

// Candidate scanning may hand at most anchoredBudgetPerByte bytes per chunk
// byte, plus anchoredBudgetSlack, to anchored runs, so a chunk costs at most
// a small multiple of the unanchored search. No chunk of the 220 corpus
// documents, BenchmarkLinearScaling's pages or 40 pages of each obituary
// training layout uses more than 35% of it.
const (
	anchoredBudgetPerByte = 4
	anchoredBudgetSlack   = 1024
)

// findAllUnanchored appends c.Pattern.FindAllStringIndex's matches to dst.
func findAllUnanchored(dst []int, c *ontology.CompiledPattern, text string) []int {
	for _, m := range c.Pattern.FindAllStringIndex(text, -1) {
		dst = append(dst, m[0], m[1])
	}
	return dst
}

// afterNthSpace returns one past the n-th ' ' in text[p:end], or end when
// there are fewer.
func afterNthSpace(text string, p, end, n int) int {
	for ; n > 0; n-- {
		i := strings.IndexByte(text[p:end], ' ')
		if i < 0 {
			return end
		}
		p += i + 1
	}
	return p
}

// containsAll reports whether text contains every byte of bs.
func containsAll(text string, bs []byte) bool {
	for _, b := range bs {
		if strings.IndexByte(text, b) < 0 {
			return false
		}
	}
	return true
}

// mayMatch reports whether text contains one of c's necessary literals (if
// it has any) and every one of its required bytes.
func mayMatch(c *ontology.CompiledPattern, text string) bool {
	if !containsAll(text, c.Required) {
		return false
	}
	if len(c.Prefilter) == 0 {
		return true
	}
	for _, l := range c.Prefilter {
		if strings.Contains(text, l) {
			return true
		}
	}
	return false
}

// sortEntries orders entries by position, ties broken by object-set name,
// then kind — the table's canonical order.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.ObjectSet != b.ObjectSet {
			return a.ObjectSet < b.ObjectSet
		}
		return a.Kind < b.Kind
	})
}

// FieldCount returns the number of indicator occurrences for one
// record-identifying field, per §4.5: keyword occurrences for
// keyword-indicated fields, constant occurrences otherwise.
func FieldCount(t *Table, f ontology.RecordIdentifyingField) int {
	if f.UseKeywords {
		return t.CountKeyword(f.Set.Name)
	}
	return t.CountConstant(f.Set.Name)
}

// EstimateRecordCount averages the indicator counts of the ontology's
// record-identifying fields — the paper's estimate of the number of records
// in the document. ok is false when the ontology has fewer than three
// record-identifying fields (OM then declines to answer).
func EstimateRecordCount(ont *ontology.Ontology, t *Table) (estimate float64, ok bool) {
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		return 0, false
	}
	sum := 0
	for _, f := range fields {
		sum += FieldCount(t, f)
	}
	return float64(sum) / float64(len(fields)), true
}
