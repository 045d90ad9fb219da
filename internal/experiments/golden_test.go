package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"thinunison/internal/experiments"
)

// TestRenderGolden holds the rendered tables of the experiments that run
// campaign's MIS/LE and AlgAU drivers outside campaign (E4, E6, E9 and F2)
// to committed bytes, in quick mode at two seeds. A driver change that moves
// one draw, one budget or one verdict changes a table here.
func TestRenderGolden(t *testing.T) {
	runs := []struct {
		id  string
		run func(experiments.Config) (experiments.Result, error)
	}{
		{"E4", experiments.E4},
		{"E6", experiments.E6},
		{"E9", experiments.E9},
		{"F2", experiments.F2},
	}
	for _, seed := range []int64{1, 7} {
		for _, r := range runs {
			name := fmt.Sprintf("%s-seed%d", r.id, seed)
			t.Run(name, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.run(experiments.Config{Seed: seed, Quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Render(); got != string(want) {
					t.Errorf("render differs from testdata/%s.txt\n--- got\n%s--- want\n%s", name, got, want)
				}
			})
		}
	}
}
