package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/wire"
)

// Wrapper endpoints: the learn-once / apply-cheaply workflow over HTTP.
// Samples and applied pages run under documentOptions, as a /v1/records
// document does, and answer 413/422/503 as it does.
//
//	POST /v1/wrapper/learn {samples: [html...], ontology?}
//	     → {wrapper: <saved form>, separator, confidence, agreement}
//	POST /v1/wrapper/apply {wrapper: <from learn>, html, ontology?}
//	     → {records: [...]} or 409 on drift

type learnRequest struct {
	Samples  []string `json:"samples"`
	Ontology string   `json:"ontology,omitempty"`
}

type applyRequest struct {
	Wrapper json.RawMessage `json:"wrapper"`
	HTML    string          `json:"html"`
	// Ontology is validated for compatibility; applying never reads it.
	Ontology string `json:"ontology,omitempty"`
}

func registerWrapperRoutes(mux *http.ServeMux, s server) {
	mux.HandleFunc("POST /v1/wrapper/learn", s.handleWrapperLearn)
	mux.HandleFunc("POST /v1/wrapper/apply", s.handleWrapperApply)
}

func (s server) handleWrapperLearn(w http.ResponseWriter, r *http.Request) {
	var req learnRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Samples) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("samples are required"))
		return
	}
	ont, err := ontology.Resolve(req.Ontology)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	opts, release := s.documentOptions(r.Context(), ont, req.Ontology, nil)
	defer release()
	learned, err := core.LearnSeparator(r.Context(), req.Samples, opts)
	if err != nil {
		apiErr := pipelineError(err)
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"wrapper":    learned,
		"separator":  learned.Separator,
		"confidence": learned.Confidence,
		"agreement":  learned.Agreement,
	})
}

func (s server) handleWrapperApply(w http.ResponseWriter, r *http.Request) {
	var req applyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Wrapper) == 0 || req.HTML == "" {
		WriteError(w, http.StatusBadRequest, errors.New("wrapper and html are required"))
		return
	}
	if _, err := ontology.Resolve(req.Ontology); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	learned, err := wire.LoadWrapper(bytes.NewReader(req.Wrapper))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	opts, release := s.documentOptions(r.Context(), nil, "", nil)
	defer release()
	records, err := core.ApplySeparator(r.Context(), req.HTML, learned.Separator, opts)
	if err != nil {
		apiErr := pipelineError(err)
		if errors.Is(err, core.ErrDrift) {
			apiErr.status = http.StatusConflict
		}
		WriteError(w, apiErr.status, apiErr.err)
		return
	}
	var out []recordBody
	for _, rec := range records {
		out = append(out, recordBody{Text: rec.Text, Start: rec.Start, End: rec.End})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"separator": learned.Separator,
		"records":   out,
	})
}
