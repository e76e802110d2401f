package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpoRace races exposition against first uses of new label sets: each
// worker registers a fixed number of new series while /metrics renders, so
// a family's series map is written during WritePrometheus. Unsynchronized
// iteration fails under -race (and can abort the process with "concurrent
// map iteration and map write" without it). The churn is bounded so the
// test's memory does not grow with the time exposition takes.
func TestExpoRace(t *testing.T) {
	const workers, seriesPerWorker = 4, 2000
	r := NewRegistry()
	var writing atomic.Int32
	writing.Store(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			for i := 0; i < seriesPerWorker; i++ {
				r.Counter("x_total", "", "route", strconv.Itoa(w*1_000_000+i)).Inc()
			}
		}(w)
	}
	// Expose at least 50 times, and for as long as any worker is still
	// adding series.
	for i := 0; i < 50 || writing.Load() > 0; i++ {
		_ = r.WritePrometheus(io.Discard)
	}
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\nx_total{"); got != workers*seriesPerWorker {
		t.Fatalf("exposition lists %d series, want %d", got, workers*seriesPerWorker)
	}
}
