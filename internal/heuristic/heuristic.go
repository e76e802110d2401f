// Package heuristic implements the paper's five independent record-boundary
// heuristics (Section 4):
//
//	HT — highest-count tags
//	IT — identifiable "separator" tags
//	SD — standard deviation of inter-tag text size
//	RP — repeating-tag pattern
//	OM — ontology matching
//
// Each heuristic ranks the candidate separator tags of a document's
// highest-fan-out subtree; a heuristic may also decline to answer (RP with
// no adjacent pairs, OM without enough record-identifying fields). Rankings
// use competition ranking: tags with equal scores share the better rank.
package heuristic

import (
	"context"
	"sort"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
	"repro/internal/ontology"
	"repro/internal/recognizer"
	"repro/internal/tagtree"
)

// Context carries everything a heuristic may consult about one document.
// Build it once with NewContext and share it across heuristics — this is
// what keeps the overall process linear: the tag tree, candidate counts, and
// Data-Record Table are each computed in one pass.
type Context struct {
	// Tree is the document's tag tree.
	Tree *tagtree.Tree
	// Subtree is the highest-fan-out subtree's root.
	Subtree *tagtree.Node
	// Candidates are the candidate separator tags with their appearance
	// counts, sorted by descending count.
	Candidates []tagtree.Candidate
	// Ontology is the application ontology; nil disables OM.
	Ontology *ontology.Ontology
	// Table is the Data-Record Table over the subtree's plain text; nil
	// unless an ontology was supplied.
	Table *recognizer.Table
	// SubtreeTextLens caches, aligned with Tree.SubtreeEvents(Subtree), the
	// whitespace-collapsed text length of each text event (zero for tag
	// events). NewContextCtx fills it in one pass so SD and RP — which both
	// need "how much real text is here" per chunk — don't each re-scan
	// every text byte. Contexts assembled by hand may leave it nil; the
	// heuristics then fall back to computing lengths on the fly.
	SubtreeTextLens []int32
}

// NewContext parses nothing itself; it derives the heuristic context from an
// already-built tree. threshold is the candidate-tag cutoff
// (tagtree.DefaultCandidateThreshold for the paper's 10% rule). ont may be
// nil, in which case the OM heuristic will decline to answer.
func NewContext(tree *tagtree.Tree, threshold float64, ont *ontology.Ontology) *Context {
	return NewContextTimed(tree, threshold, ont, nil)
}

// Stage is one timed step of Context construction, reported to the observer
// passed to NewContextTimed. Tag and N describe the step's outcome as
// values; Attrs renders them as trace attributes, so an observer that keeps
// no trace formats nothing.
type Stage struct {
	Name     string // "fanout", "candidates" or "recognize"
	Duration time.Duration
	// Tag is the highest-fan-out subtree's tag name as parsed (fanout
	// only). It may alias the parse's arena, so read it, or call Attrs,
	// before the observer returns.
	Tag string
	// N is the step's count: the subtree's fan-out, the candidate count,
	// or the Data-Record Table's entry count.
	N int
}

// Attrs returns the stage's descriptive attributes as alternating key,
// value pairs: the winning tag and its fan-out, the candidate count, or the
// recognized entry count.
func (s Stage) Attrs() []string {
	switch s.Name {
	case "fanout":
		return []string{"tag", htmlparse.CanonicalName(s.Tag), "fan_out", strconv.Itoa(s.N)}
	case "candidates":
		return []string{"count", strconv.Itoa(s.N)}
	case "recognize":
		return []string{"entries", strconv.Itoa(s.N)}
	}
	return nil
}

// StageFunc observes one completed stage of context construction.
type StageFunc func(Stage)

// NewContextTimed is NewContext with per-stage observation: each derivation
// step — highest-fan-out search, candidate extraction, and (with an
// ontology) Data-Record Table recognition — is timed and reported to
// onStage. A nil onStage skips all bookkeeping; this is the hook the
// pipeline's observability layer uses for trace spans and stage-latency
// histograms.
func NewContextTimed(tree *tagtree.Tree, threshold float64, ont *ontology.Ontology, onStage StageFunc) *Context {
	hctx, err := NewContextCtx(context.Background(), tree, threshold, ont, onStage, nil)
	if err != nil {
		// Unreachable: a background context never cancels and a nil fault
		// set never fires.
		panic("heuristic: context build failed without cancellation: " + err.Error())
	}
	return hctx
}

// NewContextCtx is NewContextTimed with cancellation and fault injection:
// the Data-Record Table recognition — the expensive step — honors ctx and
// the test-only fault set (see internal/faultinject), so a hung-up caller
// stops paying for recognition and chaos tests can force failures here. It
// returns ctx's error when canceled and the recognizer's error when a
// chunk-scan fault fires.
func NewContextCtx(ctx context.Context, tree *tagtree.Tree, threshold float64, ont *ontology.Ontology, onStage StageFunc, faults *faultinject.Set) (*Context, error) {
	start := time.Now()
	sub := tree.HighestFanOut()
	if onStage != nil {
		now := time.Now()
		onStage(Stage{Name: "fanout", Duration: now.Sub(start), Tag: sub.Name, N: sub.FanOut()})
		start = now
	}
	events := tree.SubtreeEvents(sub)
	lens := make([]int32, len(events))
	for i := range events {
		if ev := &events[i]; ev.Kind == tagtree.EventText {
			lens[i] = int32(tagtree.CollapsedLen(ev.Text))
		}
	}
	hctx := &Context{
		Tree:            tree,
		Subtree:         sub,
		Candidates:      tagtree.Candidates(sub, threshold),
		Ontology:        ont,
		SubtreeTextLens: lens,
	}
	if onStage != nil {
		now := time.Now()
		onStage(Stage{Name: "candidates", Duration: now.Sub(start), N: len(hctx.Candidates)})
		start = now
	}
	if ont != nil {
		table, err := recognizer.RecognizeContext(ctx, ont, tree, sub, faults)
		if err != nil {
			return nil, err
		}
		hctx.Table = table
		if onStage != nil {
			onStage(Stage{Name: "recognize", Duration: time.Since(start), N: hctx.Table.Len()})
		}
	}
	return hctx, nil
}

// CandidateCount returns the appearance count of the named candidate tag,
// or 0 if the tag is not a candidate.
func (c *Context) CandidateCount(name string) int {
	for _, cand := range c.Candidates {
		if cand.Name == name {
			return cand.Count
		}
	}
	return 0
}

// IsCandidate reports whether name is one of the candidate tags.
func (c *Context) IsCandidate(name string) bool {
	return c.CandidateCount(name) > 0
}

// candidateIndex maps each candidate tag name to its position in
// c.Candidates, for heuristics that scan the event stream and want O(1)
// membership tests plus dense per-candidate accumulators instead of
// per-event map traffic.
func candidateIndex(c *Context) map[string]int {
	m := make(map[string]int, len(c.Candidates))
	for i, cand := range c.Candidates {
		m[cand.Name] = i
	}
	return m
}

// collapsedTextLen returns the whitespace-collapsed length of the i-th
// subtree event's text: the cached value when the context carries one, a
// direct scan otherwise.
func collapsedTextLen(c *Context, events []tagtree.Event, i int) int {
	if c.SubtreeTextLens != nil {
		return int(c.SubtreeTextLens[i])
	}
	return tagtree.CollapsedLen(events[i].Text)
}

// Ranked is one entry of a heuristic's answer: a candidate tag, its 1-based
// competition rank, and the heuristic's raw score (meaning varies by
// heuristic; exposed for explainability and tests).
type Ranked struct {
	Tag   string
	Rank  int
	Score float64
}

// Ranking is a heuristic's ordered answer, best first.
type Ranking []Ranked

// RankOf returns the 1-based rank of the tag, or 0 if the ranking does not
// include it.
func (r Ranking) RankOf(tag string) int {
	for _, e := range r {
		if e.Tag == tag {
			return e.Rank
		}
	}
	return 0
}

// Tags returns the ranked tag names, best first.
func (r Ranking) Tags() []string {
	out := make([]string, len(r))
	for i, e := range r {
		out[i] = e.Tag
	}
	return out
}

// ToMap converts the ranking to tag → rank form for certainty combination.
func (r Ranking) ToMap() map[string]int {
	out := make(map[string]int, len(r))
	for _, e := range r {
		out[e.Tag] = e.Rank
	}
	return out
}

// Heuristic is one of the paper's five individual heuristics.
type Heuristic interface {
	// Name returns the paper's two-letter abbreviation (OM, RP, SD, IT, HT).
	Name() string
	// Rank orders the candidate tags best-first. ok is false when the
	// heuristic cannot supply an answer for this document.
	Rank(ctx *Context) (r Ranking, ok bool)
}

// All returns the five heuristics in the paper's ORSIH order.
func All() []Heuristic {
	return []Heuristic{OM{}, RP{}, SD{}, IT{}, HT{}}
}

// ByName returns the named heuristic (OM, RP, SD, IT, HT), or nil.
func ByName(name string) Heuristic {
	for _, h := range All() {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// rankByScore sorts scored tags ascending (lower score is better when
// ascending is true, higher when false) and assigns competition ranks: tags
// with equal scores share a rank and the next distinct score skips the
// intervening positions (1, 2, 2, 4). Score ties are ordered by tag name for
// determinism.
func rankByScore(scores map[string]float64, ascending bool) Ranking {
	tags := make([]string, 0, len(scores))
	for t := range scores {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		si, sj := scores[tags[i]], scores[tags[j]]
		if si != sj {
			if ascending {
				return si < sj
			}
			return si > sj
		}
		return tags[i] < tags[j]
	})
	out := make(Ranking, len(tags))
	for i, t := range tags {
		rank := i + 1
		if i > 0 && scores[t] == scores[tags[i-1]] {
			rank = out[i-1].Rank
		}
		out[i] = Ranked{Tag: t, Rank: rank, Score: scores[t]}
	}
	return out
}
