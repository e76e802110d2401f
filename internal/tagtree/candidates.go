package tagtree

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/htmlparse"
)

// DefaultCandidateThreshold is the paper's 10% rule: a start-tag appearing
// fewer than threshold × (total tags in the subtree) times is irrelevant.
const DefaultCandidateThreshold = 0.10

// Candidate is a start-tag eligible to be the record separator, with its
// appearance count inside the highest-fan-out subtree.
type Candidate struct {
	Name  string
	Count int
}

// TagCounts returns the number of appearances of each start-tag name in the
// subtree rooted at n, excluding n itself.
func TagCounts(n *Node) map[string]int {
	counts := make(map[string]int)
	n.Walk(func(m *Node) bool {
		if m != n {
			counts[m.Name]++
		}
		return true
	})
	return counts
}

// Candidates partitions the start-tags of the subtree rooted at n into
// candidate separator tags and irrelevant tags, per Section 3: a tag is
// irrelevant when its appearance count is below threshold × (total number
// of tags in the subtree). Pass DefaultCandidateThreshold for the paper's
// 10% rule. The result is sorted by descending count, ties broken by name,
// so it is deterministic.
//
// Candidate names are canonicalized (htmlparse.CanonicalName): a tree's
// names can be views of its document, and every tag in a discovery answer
// comes from here, so answers kept in caches and stores never pin the
// request document.
func Candidates(n *Node, threshold float64) []Candidate {
	counts := TagCounts(n)
	total := n.SubtreeTagCount()
	cutoff := threshold * float64(total)
	out := make([]Candidate, 0, len(counts))
	for name, c := range counts {
		if float64(c) >= cutoff {
			out = append(out, Candidate{Name: htmlparse.CanonicalName(name), Count: c})
		}
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// Occurrences returns the byte offsets (in the original document) of every
// start-tag with the given name inside the subtree rooted at n, in document
// order. These are the partition points used to split the document into
// records once the separator tag is chosen.
func Occurrences(t *Tree, n *Node, name string) []int {
	var out []int
	for _, ev := range t.SubtreeEvents(n) {
		if ev.Kind == EventStart && ev.Node != n && ev.Node.Name == name {
			out = append(out, ev.Pos)
		}
	}
	return out
}
