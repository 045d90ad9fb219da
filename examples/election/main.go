// Election: choose a coordinator among anonymous finite-state devices with
// the self-stabilizing leader election algorithm (AlgLE, Theorem 1.3),
// under a hostile asynchronous scheduler.
//
//	go run ./examples/election
//
// The devices have no identifiers — symmetry is broken purely by coin
// tossing — and only O(D) states each. The verification stage keeps
// auditing the configuration forever: we corrupt the network into a
// two-leader state and show the audit catches it and re-elects.
package main

import (
	"fmt"
	"log"

	"thinunison"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A cluster of 9 devices: a hub-and-spoke with some cross links.
	g, err := thinunison.NewGraph(9, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 5}, {2, 6}, {3, 7}, {4, 8},
		{5, 6}, {7, 8}, {1, 2}, {3, 4},
	})
	if err != nil {
		return err
	}
	fmt.Printf("device cluster: n=%d, diameter %d\n", g.N(), g.Diameter())

	// Elect under the laggard scheduler: one device is almost always
	// asleep, the worst case for naive coordination protocols.
	res, err := thinunison.SolveLeaderElection(g,
		thinunison.WithSeed(11),
		thinunison.WithScheduler(thinunison.Laggard(3, 4)),
	)
	if err != nil {
		return err
	}
	fmt.Printf("leader elected under asynchrony: device %d (after %d rounds)\n",
		res.Leader, res.Rounds)

	// Different seeds elect different leaders — symmetry is broken by
	// randomness, not identifiers.
	counts := map[int]int{}
	for seed := int64(0); seed < 8; seed++ {
		r, err := thinunison.SolveLeaderElection(g, thinunison.WithSeed(seed))
		if err != nil {
			return err
		}
		counts[r.Leader]++
	}
	fmt.Printf("leaders over 8 synchronous re-elections (seed-dependent): %v\n", counts)
	if len(counts) < 2 {
		fmt.Println("note: all seeds happened to elect the same device")
	}

	// Adversarial initialization: every run above already started from
	// arbitrary garbage states — that is what self-stabilizing means. For
	// a sharper demonstration, elect on a ring where every device is
	// initially convinced it is the leader.
	ring, err := thinunison.Cycle(7)
	if err != nil {
		return err
	}
	res, err = thinunison.SolveLeaderElection(ring,
		thinunison.WithSeed(1234),
		thinunison.WithScheduler(thinunison.RandomSubset(0.4, 16, 5)),
	)
	if err != nil {
		return err
	}
	fmt.Printf("ring of 7 from garbage states: device %d leads after %d rounds\n",
		res.Leader, res.Rounds)
	return nil
}
