package pipeline

import (
	"fmt"

	"repro/internal/wire"
)

// Task is one document queued for bulk discovery. Seq is its dense 0-based
// position in the input stream; the engine uses it both to restore input
// order on output and as the checkpoint key, so the same input must always
// produce the same Seq assignment (sources guarantee this).
type Task struct {
	// Seq is assigned by the source in input order, starting at 0.
	Seq int
	// ID is the caller's label for the document ("doc-<seq>" when absent).
	ID string
	// Mode is "html" or "xml".
	Mode string
	// Doc is the document source.
	Doc string
	// Ontology is a built-in ontology name or full DSL source; empty
	// disables OM, exactly as on the HTTP surface.
	Ontology string
	// SeparatorList optionally overrides IT's identifiable-separator list.
	SeparatorList []string
	// Shard routes the result to an output shard (e.g. the document's
	// domain); empty lands in the default shard.
	Shard string

	// invalid carries a per-line input error (malformed JSON, oversized
	// line, bad envelope). The engine emits it as an error outcome without
	// running the pipeline, so one bad line cannot sink a corpus.
	invalid error
}

// Invalid returns the task's per-line input error (malformed JSON, oversized
// line, bad envelope), or nil for a well-formed task. Surfaces that consume
// Sources directly — the cluster router's stream path — use it to emit the
// same inline error the bulk engine would.
func (t *Task) Invalid() error { return t.invalid }

// TaskID returns the task's label, defaulting to its sequence position
// ("doc-<seq>"). Every surface that emits Outcomes — the bulk engine and the
// cluster router's stream path — must use this so identical inputs produce
// identical output bytes.
func (t *Task) TaskID() string {
	if t.ID != "" {
		return t.ID
	}
	return fmt.Sprintf("doc-%d", t.Seq)
}

// Outcome is one document's bulk-discovery result as written to the output
// stream — the same shape as the /v1/discover response body plus the bulk
// envelope (seq, id, shard, attempts, error). Exactly one of Separator or
// Error is meaningful.
type Outcome struct {
	Seq   int    `json:"seq"`
	ID    string `json:"id"`
	Shard string `json:"shard,omitempty"`
	// Attempts is recorded only when retries happened (>1).
	Attempts int `json:"attempts,omitempty"`

	// The answer fields are wire.Answer's, each omitted when empty: an
	// error line carries none of them, and a single-candidate answer's
	// empty rankings are left off the line.
	Separator  string                 `json:"separator,omitempty"`
	TopTags    []string               `json:"top_tags,omitempty"`
	Scores     []wire.Score           `json:"scores,omitempty"`
	Rankings   map[string][]wire.Rank `json:"rankings,omitempty"`
	Candidates []wire.Candidate       `json:"candidates,omitempty"`
	Subtree    string                 `json:"subtree,omitempty"`

	Degraded         bool     `json:"degraded,omitempty"`
	FailedHeuristics []string `json:"failed_heuristics,omitempty"`

	// Error carries the per-document failure; the run itself keeps going,
	// mirroring the batch endpoint's inline-error contract.
	Error string `json:"error,omitempty"`

	// skipped marks a task the checkpoint journal proved already done; the
	// emitter advances past it without writing or journaling.
	skipped bool
	// canceled marks a task abandoned because the run context ended; it is
	// never written or journaled, so a resumed run re-processes it.
	canceled bool
}

// SetAnswer fills the outcome's answer fields from a — a local discovery's
// core.Result.Answer, or a replica's decoded /v1/discover body on the
// cluster stream path — so both surfaces write identical lines.
func (o *Outcome) SetAnswer(a wire.Answer) {
	o.Separator = a.Separator
	o.TopTags = a.TopTags
	o.Scores = a.Scores
	o.Rankings = a.Rankings
	o.Candidates = a.Candidates
	o.Subtree = a.Subtree
	o.Degraded = a.Degraded
	o.FailedHeuristics = a.FailedHeuristics
}
