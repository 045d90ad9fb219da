// Firefly: the paper's biological motivation rendered as a simulation. A
// population of anonymous "cells" (fireflies, cardiac pacemaker cells,
// quorum-sensing bacteria — pick your favorite) senses only which internal
// states are present in its neighborhood, wakes up asynchronously, suffers
// environmental shocks that scramble cell states, and still converges to a
// common rhythm — because the pulse clock is the self-stabilizing AlgAU.
//
//	go run ./examples/firefly
//
// The example renders the population's phase histogram over time: after
// stabilization, the phases sweep the cyclic clock together (a traveling
// wave at most one unit wide across any edge).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"thinunison"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const cells = 24

	// A random swarm topology with moderate connectivity.
	g, err := thinunison.RandomConnected(cells, 0.25, rand.New(rand.NewSource(7)))
	if err != nil {
		return err
	}

	// Cells wake up asynchronously: each activates with probability 1/2 in
	// every step.
	swarm, err := thinunison.NewUnison(g,
		thinunison.WithSeed(7),
		thinunison.WithScheduler(thinunison.RandomSubset(0.5, 16, 8)),
	)
	if err != nil {
		return err
	}
	fmt.Printf("swarm of %d fireflies, diameter %d, %d states per firefly\n",
		cells, swarm.D(), swarm.States())

	fmt.Println("\nwaking up with arbitrary phases...")
	rounds, err := swarm.RunUntilStabilized(swarm.StabilizationBudget())
	if err != nil {
		return err
	}
	fmt.Printf("in sync after %d rounds\n\n", rounds)

	fmt.Println("flashing together (phase histogram per round):")
	printHistogram(swarm)
	for i := 0; i < 6; i++ {
		if err := swarm.RunRounds(1); err != nil {
			return err
		}
		printHistogram(swarm)
	}

	fmt.Println("\na storm scrambles a third of the swarm...")
	swarm.InjectFaults(cells / 3)
	printHistogram(swarm)
	rounds, err = swarm.RunUntilStabilized(swarm.StabilizationBudget())
	if err != nil {
		return err
	}
	fmt.Printf("back in sync after %d rounds\n", rounds)
	printHistogram(swarm)
	return nil
}

// printHistogram renders how many fireflies are at each clock phase.
func printHistogram(swarm *thinunison.Unison) {
	order := swarm.ClockOrder()
	hist := make([]int, order)
	faulty := 0
	for _, c := range swarm.Clocks() {
		if c < 0 {
			faulty++
			continue
		}
		hist[c]++
	}
	var b strings.Builder
	for _, h := range hist {
		switch {
		case h == 0:
			b.WriteByte('.')
		case h < 10:
			b.WriteByte(byte('0' + h))
		default:
			b.WriteByte('#')
		}
	}
	suffix := ""
	if faulty > 0 {
		suffix = fmt.Sprintf("  (%d recovering)", faulty)
	}
	fmt.Printf("  phases |%s|%s\n", b.String(), suffix)
}
