package experiments

import (
	"context"
	"fmt"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
	"thinunison/internal/stats"
)

// leMisSweep sweeps n over bounded-diameter families via the parallel
// campaign runner and reports stabilization rounds against the theorem's
// bound shape.
func leMisSweep(cfg Config, id string, alg campaign.Algorithm) (Result, error) {
	cfg.defaults()
	res := Result{ID: id, OK: true}
	tbl := stats.NewTable("Stabilization rounds from adversarial states (bounded-diameter family, D=3)",
		"n", "log2 n", "instances", "median", "p95", "max", "max/(D*log n)", "max/((D+log n)*log n)")

	const d = 3
	var sizes []int
	for n := 8; n <= cfg.MaxN; n *= 2 {
		sizes = append(sizes, n)
	}
	records, err := (&campaign.Runner{}).RunMatrix(context.Background(), cfg.Seed+23, campaign.Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          sizes,
		DiameterBounds: []int{d},
		Schedulers:     []campaign.SchedulerSpec{campaign.Synchronous},
		Algorithms:     []campaign.Algorithm{alg},
		Trials:         cfg.Trials * 2,
	})
	if err != nil {
		return res, err
	}

	var ns, maxs []float64
	for _, g := range campaign.Aggregate(records) {
		if g.Failures > 0 {
			res.OK = false
		}
		n := g.Key.N
		logn := stats.Log2(n)
		sum := g.Rounds
		tbl.AddRow(n, logn, sum.N, sum.Median, sum.P95, sum.Max,
			sum.Max/float64(d*logn), sum.Max/float64((d+logn)*logn))
		ns = append(ns, float64(n))
		maxs = append(maxs, sum.Max)
	}
	res.Tables = append(res.Tables, tbl)

	_, exp, ok := stats.FitPowerLaw(ns, maxs)
	res.Note = "all instances stabilized within the theorem budget"
	if ok {
		res.Note += fmt.Sprintf("; sampled maxima fit n^%.2f (polylog expected: exponent near 0)", exp)
	}
	if !res.OK {
		res.Note = "sweep FAILED: some instance missed its budget"
	}
	return res, nil
}
