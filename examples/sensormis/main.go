// Sensormis: cluster-head selection in a broadcast sensor field via the
// self-stabilizing maximal independent set algorithm (AlgMIS, Theorem 1.4).
//
//	go run ./examples/sensormis
//
// Sensors are anonymous, have O(D) memory, and communicate only by sensing
// which states exist nearby (no IDs, no counting, no collision detection).
// The MIS nodes become cluster heads: no two heads are adjacent, and every
// sensor hears at least one head. The computation self-stabilizes: it starts
// from arbitrary garbage states and survives a mid-run corruption (here we
// simply recompute from a corrupted seed to demonstrate both entry points).
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
	// A 4x5 sensor grid (radio range = grid neighbors).
	const rows, cols = 4, 5
	field, err := thinunison.Grid(rows, cols)
	if err != nil {
		return err
	}
	fmt.Printf("sensor field: %dx%d grid, diameter %d\n", rows, cols, field.Diameter())

	// Synchronous deployment.
	res, err := thinunison.SolveMIS(field, thinunison.WithSeed(3))
	if err != nil {
		return err
	}
	fmt.Printf("\ncluster heads after %d rounds (synchronous radios):\n", res.Rounds)
	render(rows, cols, res.InSet)
	if !field.IsMaximalIndependentSet(res.InSet) {
		return fmt.Errorf("output is not an MIS — this should be impossible")
	}

	// Asynchronous radios: sensors wake at arbitrary times; the Corollary
	// 1.2 synchronizer (running AlgAU underneath) makes the same algorithm
	// work unchanged.
	res, err = thinunison.SolveMIS(field,
		thinunison.WithSeed(9),
		thinunison.WithScheduler(thinunison.RandomSubset(0.5, 16, 4)),
	)
	if err != nil {
		return err
	}
	fmt.Printf("\ncluster heads after %d rounds (asynchronous radios, via the synchronizer):\n", res.Rounds)
	render(rows, cols, res.InSet)
	if !field.IsMaximalIndependentSet(res.InSet) {
		return fmt.Errorf("asynchronous output is not an MIS")
	}

	fmt.Println("\nproperties: no two heads in radio range; every sensor hears a head.")
	return nil
}

// render draws the field with heads as '#' and ordinary sensors as '.'.
func render(rows, cols int, heads []int) {
	head := make(map[int]bool, len(heads))
	for _, v := range heads {
		head[v] = true
	}
	for r := 0; r < rows; r++ {
		fmt.Print("  ")
		for c := 0; c < cols; c++ {
			if head[r*cols+c] {
				fmt.Print("# ")
			} else {
				fmt.Print(". ")
			}
		}
		fmt.Println()
	}
}
