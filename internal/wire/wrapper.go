package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Wrapper is a learned site wrapper's saved form: the record separator the
// sample pages of one site agreed on (core.LearnSeparator), written by
// cmd/wrapper learn and returned by POST /v1/wrapper/learn, and read back
// by their apply counterparts.
type Wrapper struct {
	// Version is WrapperVersion; LoadWrapper refuses any other.
	Version int `json:"version"`
	// Separator is the site's record-separator tag.
	Separator string `json:"separator"`
	// Ontology names the built-in ontology the wrapper was learned with;
	// empty when it was learned structurally or with a custom DSL
	// ontology. Applying a wrapper never reads it.
	Ontology string `json:"ontology,omitempty"`
	// Confidence is the separator's mean compound certainty factor across
	// the samples that chose it.
	Confidence float64 `json:"confidence"`
	// Agreement is the fraction of samples whose discovered separator is
	// Separator.
	Agreement float64 `json:"agreement"`
	// SampleSize is the number of sample documents.
	SampleSize int `json:"sample_size"`
}

// WrapperVersion is the current saved-form version.
const WrapperVersion = 1

// ErrCorrupt marks a saved wrapper that cannot be decoded into a usable
// state: truncated or torn JSON (a crash mid-save), non-JSON bytes, or a
// document missing its separator. LoadWrapper never returns a partial
// wrapper, mirroring the torn-write handling of the bulk checkpoint journal
// and the template store. An unsupported version is a compatibility
// refusal, not corruption.
var ErrCorrupt = errors.New("wrapper: corrupt saved wrapper")

// Save writes the wrapper as two-space-indented JSON and a newline.
func (w Wrapper) Save(dst io.Writer) error {
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// LoadWrapper reads the first JSON value of src as a saved wrapper.
func LoadWrapper(src io.Reader) (Wrapper, error) {
	var w Wrapper
	if err := json.NewDecoder(src).Decode(&w); err != nil {
		return Wrapper{}, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if w.Version != WrapperVersion {
		return Wrapper{}, fmt.Errorf("wrapper: unsupported version %d", w.Version)
	}
	if w.Separator == "" {
		return Wrapper{}, fmt.Errorf("%w: missing separator", ErrCorrupt)
	}
	return w, nil
}

// String summarizes the wrapper.
func (w Wrapper) String() string {
	return fmt.Sprintf("wrapper{sep=<%s> conf=%.2f%% agree=%.0f%% n=%d}",
		w.Separator, w.Confidence*100, w.Agreement*100, w.SampleSize)
}
