package experiments

import (
	"math/rand"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/restart"
)

// restartCounter is the trivial wrapped algorithm used by the E5 trials.
type restartCounter struct{ N int }

// restartTrial runs one Theorem 3.1 trial: an adversarial mixed
// configuration with at least one Restart node; it returns the round of the
// first concurrent global exit (or -1) and whether the exit was concurrent.
func restartTrial(g *graph.Graph, d int, rng *rand.Rand) (exitRound int, concurrent bool) {
	mod, err := restart.NewModule[restartCounter](
		d,
		func() restartCounter { return restartCounter{} },
		func(self restartCounter, _ []restartCounter, _ *rand.Rand) (restartCounter, bool) {
			return restartCounter{N: self.N + 1}, false
		},
	)
	if err != nil {
		return -1, false
	}
	initial := make([]restart.State[restartCounter], g.N())
	for v := range initial {
		if rng.Intn(2) == 0 {
			initial[v] = restart.State[restartCounter]{InRestart: true, Pos: rng.Intn(2*d + 1)}
		} else {
			initial[v] = restart.State[restartCounter]{Alg: restartCounter{N: 1 + rng.Intn(4)}}
		}
	}
	initial[rng.Intn(g.N())] = restart.State[restartCounter]{InRestart: true, Pos: rng.Intn(2*d + 1)}

	eng, err := asyncsim.New(g, mod.Step, initial, nil, rng.Int63())
	if err != nil {
		return -1, false
	}
	budget := 6*d + 4
	for r := 1; r <= budget; r++ {
		prev := eng.States()
		eng.Step()
		cur := eng.States()
		all := true
		for v := range cur {
			if !prev[v].InRestart || cur[v].InRestart || cur[v].Alg.N != 0 {
				all = false
				break
			}
		}
		if all {
			return r, true
		}
	}
	return -1, false
}
