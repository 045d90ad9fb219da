package campaign_test

import (
	"bytes"
	"testing"

	"thinunison/internal/campaign"
)

// TestRestoreCheck runs the full checkpoint/restore differential matrix —
// the same harness `cmd/campaign -check restore` gates CI with — so a
// restore regression fails plain `go test` too.
func TestRestoreCheck(t *testing.T) {
	var buf bytes.Buffer
	if failures := campaign.RestoreCheck(&buf); failures != 0 {
		t.Fatalf("%d matrix cell(s) failed:\n%s", failures, buf.String())
	}
}
