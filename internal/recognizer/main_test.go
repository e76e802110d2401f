package recognizer

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the package's test run if a test leaks goroutines.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
