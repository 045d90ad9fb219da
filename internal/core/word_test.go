package core_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
)

// kernelAUs returns every AU instance whose state space fits a machine word
// (|Q| = 12D+6 ≤ 64 ⟺ D ≤ 4), i.e. every instance that must offer a kernel.
func kernelAUs(t *testing.T) []*core.AU {
	t.Helper()
	var out []*core.AU
	for d := 1; d <= 4; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			t.Fatal(err)
		}
		if au.Kernel() == nil {
			t.Fatalf("AU(%d) with |Q| = %d offers no kernel", d, au.NumStates())
		}
		out = append(out, au)
	}
	return out
}

// signalOf packs a scalar signal's word-0 bits; |Q| ≤ 64 keeps it exact.
func signalOf(au *core.AU, states ...sa.State) (sa.Signal, uint64) {
	sig := sa.NewSignal(au.NumStates())
	for _, q := range states {
		sig.Set(q)
	}
	return sig, sig.Words()[0]
}

// TestKernelEvalMatchesTransition cross-checks the transitions of the
// batched word kernel against the scalar transition function over random
// inclusive signals (the only kind engines build: a node always senses
// itself).
func TestKernelEvalMatchesTransition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, au := range kernelAUs(t) {
		kern := au.Kernel()
		nq := au.NumStates()
		const batch = 257
		cur := make([]sa.State, batch)
		sws := make([]uint64, batch)
		next := make([]sa.State, batch)
		good := make([]uint64, sa.PlaneWords(batch))
		sigs := make([]sa.Signal, batch)
		for trial := 0; trial < 20; trial++ {
			for i := range cur {
				q := rng.Intn(nq)
				states := []sa.State{q}
				for extra := rng.Intn(4); extra > 0; extra-- {
					states = append(states, rng.Intn(nq))
				}
				sig, sw := signalOf(au, states...)
				cur[i], sws[i], sigs[i] = q, sw, sig
			}
			kern.EvalGood(cur, sws, next, good)
			for i := range cur {
				want := au.Transition(cur[i], sigs[i], nil)
				if next[i] != want {
					t.Fatalf("AU(%d) trial %d slot %d: EvalGood(%d, %#x) = %d, Transition = %d",
						au.D(), trial, i, cur[i], sws[i], next[i], want)
				}
				// next == cur must coincide with the settled certificate.
				_, settled := au.TransitionSettled(cur[i], sigs[i], nil)
				if (next[i] == cur[i]) != settled {
					t.Fatalf("AU(%d): settled certificate diverged at state %d", au.D(), cur[i])
				}
			}
		}
	}
}

// TestKernelEvalGoodMatchesNodeGood checks the fused goodness bits against
// the scalar NodeGood predicate over random graphs and configurations,
// including the all-ones tail contract.
func TestKernelEvalGoodMatchesNodeGood(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, au := range kernelAUs(t) {
		kern := au.Kernel()
		for _, n := range []int{1, 5, 63, 64, 65, 90} {
			g, err := graph.RandomConnected(n, 0.1, rng)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sa.Random(n, au.NumStates(), rng)
			cur := make([]sa.State, n)
			sws := make([]uint64, n)
			next := make([]sa.State, n)
			for v := 0; v < n; v++ {
				states := []sa.State{cfg[v]}
				for _, u := range g.Neighbors(v) {
					states = append(states, cfg[u])
				}
				_, sw := signalOf(au, states...)
				cur[v], sws[v] = cfg[v], sw
			}
			good := make([]uint64, sa.PlaneWords(n))
			kern.EvalGood(cur, sws, next, good)
			for v := 0; v < n; v++ {
				want := au.NodeGood(g, cfg, v)
				got := good[v>>6]>>uint(v&63)&1 != 0
				if got != want {
					t.Fatalf("AU(%d) n=%d: goodness bit of node %d = %v, NodeGood = %v (state %s)",
						au.D(), n, v, got, want, au.StateName(cfg[v]))
				}
			}
			if tail := uint(n & 63); tail != 0 {
				if missing := ^good[len(good)-1] >> tail; missing<<tail != 0 {
					t.Fatalf("AU(%d) n=%d: EvalGood tail bits not forced to 1", au.D(), n)
				}
			}
		}
	}
}

// TestKernelEvalAllocs pins the batch path to zero allocations per call.
func TestKernelEvalAllocs(t *testing.T) {
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	kern := au.Kernel()
	rng := rand.New(rand.NewSource(31))
	const batch = 512
	cur := make([]sa.State, batch)
	sws := make([]uint64, batch)
	next := make([]sa.State, batch)
	good := make([]uint64, sa.PlaneWords(batch))
	for i := range cur {
		q := rng.Intn(au.NumStates())
		cur[i] = q
		sws[i] = 1<<uint(q) | 1<<uint(rng.Intn(au.NumStates()))
	}
	if n := testing.AllocsPerRun(100, func() { kern.EvalGood(cur, sws, next, good) }); n != 0 {
		t.Fatalf("EvalGood allocates %v times per call, want 0", n)
	}
}

// TestKernelFuzzAgainstReferenceClassify drives the word kernel against the
// literal Table 1 reference over exhaustively enumerated single-extra-state
// signals, so every (state, sensed-state) pair is covered for every
// word-sized AU.
func TestKernelFuzzAgainstReferenceClassify(t *testing.T) {
	for _, au := range kernelAUs(t) {
		kern := au.Kernel()
		nq := au.NumStates()
		for q := 0; q < nq; q++ {
			for s := 0; s < nq; s++ {
				sig, sw := signalOf(au, q, s)
				_, want := au.ReferenceClassify(q, sig)
				cur := []sa.State{q}
				next := []sa.State{0}
				kern.EvalGood(cur, []uint64{sw}, next, make([]uint64, 1))
				if next[0] != want {
					t.Fatalf("AU(%d): kernel(%s | %s) = %s, reference %s", au.D(),
						au.StateName(q), au.StateName(s), au.StateName(next[0]), au.StateName(want))
				}
			}
		}
	}
}
