package experiments_test

import (
	"strings"
	"testing"

	"thinunison/internal/experiments"
)

// quickCfg keeps experiment smoke tests fast.
func quickCfg() experiments.Config {
	return experiments.Config{Seed: 1, Quick: true}
}

func run(t *testing.T, name string, f func(experiments.Config) (experiments.Result, error)) experiments.Result {
	t.Helper()
	res, err := f(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.OK {
		t.Fatalf("%s verdict FAILED: %s\n%s", name, res.Note, res.Render())
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	if !strings.Contains(res.Render(), "OK") {
		t.Fatalf("%s render missing OK marker", name)
	}
	return res
}

func TestT1(t *testing.T) { run(t, "T1", experiments.T1) }
func TestF1(t *testing.T) { run(t, "F1", experiments.F1) }
func TestF2(t *testing.T) { run(t, "F2", experiments.F2) }
func TestE1(t *testing.T) { run(t, "E1", experiments.E1) }
func TestE2(t *testing.T) { run(t, "E2", experiments.E2) }
func TestE3(t *testing.T) { run(t, "E3", experiments.E3) }
func TestE4(t *testing.T) { run(t, "E4", experiments.E4) }
func TestE5(t *testing.T) { run(t, "E5", experiments.E5) }
func TestE6(t *testing.T) { run(t, "E6", experiments.E6) }
func TestE7(t *testing.T) { run(t, "E7", experiments.E7) }
func TestE8(t *testing.T) { run(t, "E8", experiments.E8) }

// TestRenderFailedVerdict covers the FAILED rendering path.
func TestRenderFailedVerdict(t *testing.T) {
	r := experiments.Result{ID: "X", Note: "broken"}
	if !strings.Contains(r.Render(), "FAILED") {
		t.Error("failed result should render FAILED")
	}
}

func TestE9(t *testing.T) { run(t, "E9", experiments.E9) }

func TestV1(t *testing.T) { run(t, "V1", experiments.V1) }

// TestAll runs the full suite end to end in quick mode (the cmd/experiments
// happy path).
func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped with -short")
	}
	results, err := experiments.All(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 13 {
		t.Fatalf("got %d results, want 13 (T1, F1, F2, E1-E9, V1)", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("%s: %s", r.ID, r.Note)
		}
	}
}
