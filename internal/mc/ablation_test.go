package mc_test

import (
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/mc"
	"thinunison/internal/sa"
)

// TestAblationVerdicts pins E9's ablations exhaustively: on P2, P3 and C3,
// over every initial configuration and every activation subset,
//   - eager FA breaks Obs. 2.3's graph-level consequence (the set of
//     configurations where every node is out-protected is not closed);
//   - dropping AF fault propagation admits a fair schedule that never
//     reaches a good graph — a one-configuration deadlock;
//   - the paper's AlgAU and the thin k = D + 2 variant keep out-protection
//     closed and have no fair divergence.
//
// E9's sampled runs refute only the second ablation; the model checker
// refutes the first one too.
func TestAblationVerdicts(t *testing.T) {
	instances := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"P2", func() (*graph.Graph, error) { return graph.Path(2) }},
		{"P3", func() (*graph.Graph, error) { return graph.Path(3) }},
		{"C3", func() (*graph.Graph, error) { return graph.Cycle(3) }},
	}
	for _, inst := range instances {
		g, err := inst.build()
		if err != nil {
			t.Fatal(err)
		}
		d := g.Diameter()
		variants := []struct {
			v                core.Variant
			outProtectClosed bool
			fairDivergence   bool
		}{
			{core.Variant{}, true, false},
			{core.Variant{KOverride: d + 2}, true, false},
			{core.Variant{DisableFaultPropagation: true}, true, true},
			{core.Variant{EagerFA: true}, false, false},
		}
		for _, c := range variants {
			t.Run(inst.name+"/"+c.v.Name(), func(t *testing.T) {
				au, err := core.NewAUVariant(d, c.v)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := mc.Build(g, au)
				if err != nil {
					t.Fatal(err)
				}
				op := func(cfg sa.Config) bool { return au.GraphOutProtected(g, cfg) }
				ok, cfg, mask := sys.CheckClosure(op)
				switch {
				case ok && !c.outProtectClosed:
					t.Errorf("out-protected set is closed over all %d configurations; want a violation", sys.Size())
				case !ok && c.outProtectClosed:
					t.Errorf("out-protected set is not closed: config %v, activation mask %b", cfg.String(au), mask)
				case !ok:
					t.Logf("Obs. 2.3 refuted: config %v, activation mask %b leaves the out-protected set", cfg.String(au), mask)
				}
				good := func(cfg sa.Config) bool { return au.GraphGood(g, cfg) }
				witness, exists := sys.FairDivergence(good)
				switch {
				case exists && !c.fairDivergence:
					t.Errorf("fair divergence exists: %d-configuration witness SCC, e.g. %v",
						len(witness), sys.Config(witness[0]).String(au))
				case !exists && c.fairDivergence:
					t.Errorf("no fair divergence over all %d configurations; want a deadlock", sys.Size())
				case exists && len(witness) != 1:
					t.Errorf("fair divergence witness has %d configurations, want a one-configuration deadlock", len(witness))
				case exists:
					t.Logf("deadlock: %v never reaches a good graph under a fair schedule", sys.Config(witness[0]).String(au))
				}
			})
		}
	}
}
