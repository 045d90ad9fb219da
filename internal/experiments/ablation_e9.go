package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/randx"
	"thinunison/internal/sim"
	"thinunison/internal/stats"
)

// E9 is the ablation study motivated by Sec. 2.1's design discussion: it
// compares the paper's AlgAU against three ablated variants —
//
//   - k = D+2 instead of 3D+2 (not enough detour headroom for the
//     grounding argument of Lemmas 2.20–2.21);
//   - AF without fault propagation (condition (2) dropped; Lemma 2.12's
//     inductive chain breaks);
//   - eager FA (the cautious Ψ> check weakened to Ψ≫; re-admits the
//     "vicious cycles" the paper's rule avoids) —
//
// measuring, over the same adversarial instance set, the fraction of runs
// that stabilize within the Theorem 1.1 budget and the median rounds of
// those that do. The paper's configuration is the only one expected to
// stabilize always.
func E9(cfg Config) (Result, error) {
	cfg.defaults()
	rng := rand.New(randx.NewSource(cfg.Seed + 9))
	res := Result{ID: "E9 (ablation: why k=3D+2, fault propagation, cautious FA)", OK: true}

	d := 3
	if cfg.Quick {
		d = 2
	}
	tbl := stats.NewTable(fmt.Sprintf("Ablation sweep (D=%d, adversarial instances)", d),
		"variant", "states", "runs", "stabilized", "rate", "median rounds (stabilized)")

	err := e9Sweep(cfg, d, rng, campaign.Scenario{}, func(v core.Variant, au *core.AU, recs []campaign.Record) {
		var rounds []int
		for _, rec := range recs {
			if rec.OK {
				rounds = append(rounds, rec.Rounds)
			}
		}
		rate := float64(len(rounds)) / float64(len(recs))
		med := stats.SummarizeInts(rounds).Median
		tbl.AddRow(v.Name(), au.NumStates(), len(recs), len(rounds), rate, med)
		if v.IsPaper() && len(rounds) != len(recs) {
			res.OK = false
		}
	})
	if err != nil {
		return res, err
	}
	res.Tables = append(res.Tables, tbl)
	res.Note = "dropping AF fault propagation deadlocks about half of the adversarial space; " +
		"the k=3D+2 headroom and the cautious FA are worst-case proof obligations — random sampling " +
		"does not refute the weakened variants, matching the paper's presentation of them as analysis requirements"
	if !res.OK {
		res.Note = "E9 FAILED: the paper variant itself missed its budget"
	}
	return res, nil
}

// e9Sweep runs E9's sweep at diameter bound d. For the paper's AlgAU and
// each ablation, in table order, it runs every e1Graphs(d, 14) instance
// under every e1Schedulers scheduler, cfg.Trials times, each through
// campaign.DriveAU with scenario sc (its N set per graph), and hands the
// variant's records to visit. It draws from rng in E9's order.
func e9Sweep(cfg Config, d int, rng *rand.Rand, sc campaign.Scenario, visit func(v core.Variant, au *core.AU, recs []campaign.Record)) error {
	for _, v := range []core.Variant{
		{},                              // the paper's algorithm
		{KOverride: d + 2},              // thin detour
		{DisableFaultPropagation: true}, // no AF condition (2)
		{EagerFA: true},                 // incautious FA
	} {
		au, err := core.NewAUVariant(d, v)
		if err != nil {
			return err
		}
		var recs []campaign.Record
		for _, gs := range e1Graphs(d, 14) {
			g, err := graph.FromFamily(gs.family, gs.n, d, rng)
			if err != nil {
				return err
			}
			sc.N = g.N()
			for _, spec := range e1Schedulers() {
				// Every trial gets a fresh scheduler from the spec's one seed:
				// a random-subset scheduler carries its stream and per-node
				// gaps from one engine into the next.
				schedSeed := rng.Int63()
				for trial := 0; trial < cfg.Trials; trial++ {
					s, err := spec.Build(schedSeed)
					if err != nil {
						return err
					}
					eng, err := sim.New(g, au, sim.Options{Scheduler: s, Seed: rng.Int63()})
					if err != nil {
						return err
					}
					var rec campaign.Record
					campaign.DriveAU(context.Background(), sc, au, eng, &rec)
					recs = append(recs, rec)
				}
			}
		}
		visit(v, au, recs)
	}
	return nil
}
