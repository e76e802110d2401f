package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/wire"
)

// MaxBatchDocuments bounds one batch request. The body-size limit already
// caps total bytes; this caps scheduling overhead from degenerate requests
// with thousands of tiny documents.
const MaxBatchDocuments = 256

// batchRequest is the /v1/discover/batch envelope: each document is a full
// discover request, so per-document ontologies and separator lists work.
type batchRequest struct {
	Documents []wire.Request `json:"documents"`
}

// batchItem is one per-document outcome, in input order. Exactly one of the
// embedded result fields or Error is populated.
type batchItem struct {
	*discoverResponse
	// Error carries the per-document failure; the batch itself still
	// answers 200 so one bad document cannot mask the others' results.
	Error string `json:"error,omitempty"`
	// Code machine-tags the failure. "not_attempted" marks documents the
	// batch never dispatched because the request's context was canceled or
	// timed out mid-batch; clients should resubmit only those.
	Code string `json:"code,omitempty"`
}

// codeNotAttempted marks batch documents skipped because the request ended
// before they were dispatched.
const codeNotAttempted = "not_attempted"

// handleDiscoverBatch fans a batch of documents across a bounded worker
// pool (the EvaluateAllParallel shape: indexed tasks, results slotted by
// position) and answers per-document results in input order. Each document
// takes the same cache-then-pipeline path as /v1/discover. When the request
// context ends mid-batch, dispatch stops immediately: already-running
// documents finish (each sees the canceled context and fails fast), and
// undispatched ones come back with Code "not_attempted".
func (s server) handleDiscoverBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.cfg.Metrics.Histogram("boundary_batch_duration_seconds",
			"Wall-clock duration of one /v1/discover/batch request.", nil).
			Observe(time.Since(start).Seconds())
	}()
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Documents) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("documents must be non-empty"))
		return
	}
	if len(req.Documents) > MaxBatchDocuments {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d documents, limit is %d", len(req.Documents), MaxBatchDocuments))
		return
	}

	workers := s.cfg.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Documents) {
		workers = len(req.Documents)
	}

	ctx := r.Context()
	attempted := make([]bool, len(req.Documents))
	items := make([]batchItem, len(req.Documents))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case i, ok := <-next:
					if !ok {
						return
					}
					attempted[i] = true
					res, apiErr := s.discoverOne(ctx, &req.Documents[i])
					if apiErr != nil {
						items[i] = batchItem{Error: apiErr.err.Error()}
					} else {
						items[i] = batchItem{discoverResponse: res.resp}
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
dispatch:
	for i := range req.Documents {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	for i := range items {
		if !attempted[i] {
			items[i] = batchItem{
				Error: "batch request ended before this document was attempted",
				Code:  codeNotAttempted,
			}
		}
	}

	for _, item := range items {
		outcome := "ok"
		switch {
		case item.Code == codeNotAttempted:
			outcome = codeNotAttempted
		case item.Error != "":
			outcome = "error"
		}
		s.cfg.Metrics.Counter("boundary_batch_documents_total",
			"Documents processed by the batch endpoint, by outcome.",
			"outcome", outcome).Inc()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"results": items})
}
