package sim

import (
	"thinunison/internal/sa"
)

// This file is the word-parallel execution mode (Options.WordParallel): when
// the algorithm's state space fits in a machine word (sa.WordKernel), the
// engine swaps the scalar per-node signal construction and transition
// decoding for batch word kernels — per-node one-word self-signals kept
// current across every state write, neighborhood signals built by a CSR
// OR-scan (sa.BuildSignals), and δ evaluated 64-bits-at-a-time from
// precompiled masks (sa.WordEval). The kernel is only the step loop's
// evaluator plug (wordRuntime.stage); activation, certification and apply
// are shared with the scalar path, so word runs are byte-identical to scalar
// runs in every mode (dense/frontier, with or without churn), which the
// differential suites enforce.
//
// The kernel's fused goodness plane (WordEval.EvalGood) additionally
// certifies steps in O(n/64): when a step provably refreshed the goodness bit
// of every node whose signal may have drifted — a full dense activation, or a
// frontier step that evaluated the entire frontier — and the plane reads
// all-ones, the configuration at the start of the step was graph-good. Since
// an all-good configuration stays good under any set of fired transitions
// (AF needs an unprotected or inward-faulty sense, FA needs a faulty node,
// and AA's Λ ⊆ {ℓ, φℓ} guard preserves pairwise adjacency), the post-step
// configuration is good too, and the engine hands the step's changes to a
// WordBatchObserver in one call.

// WordBatchObserver is an optional ConfigObserver extension taking a
// certified step's changes as one batch. A word engine skips the per-node
// Apply stream of a certified step — whose O(deg) bookkeeping dominates
// steady steps where every clock ticks — and delivers the changed nodes plus
// the post-step configuration in a single call. The observer receives
// certified steps only: both the pre- and post-step configurations are
// graph-good (core.GoodMonitor therefore only refreshes its mirror and
// transition counters). Uncertified steps always use the per-node stream.
type WordBatchObserver interface {
	ConfigObserver
	ApplyWordBatch(changed []int, cfg sa.Config)
}

// wordRuntime holds the word-parallel execution state of an engine. The
// scalar configuration e.cfg stays authoritative; the runtime mirrors it as
// per-node self-words (self[v] = 1 << cfg[v], the one-word signal
// contribution of v) maintained by every state write (Engine.write), next to
// the goodness plane and the gather buffers of sparse evaluation lists.
type wordRuntime struct {
	kern sa.WordEval

	// Raw CSR adjacency, re-fetched after every churn re-compaction (the
	// graph may replace the backing arrays).
	offsets   []int
	neighbors []int

	self  []uint64 // self[v] = 1 << cfg[v]
	sws   []uint64 // sense-word scratch: node-indexed when dense, gathered when sparse
	plane []uint64 // goodness plane: bit v ↔ node v, tail bits 1

	// Gather buffers of sparse evaluation lists, allocated on first use.
	cur  []sa.State
	good []uint64
}

// newWordRuntime builds the word runtime for an engine whose algorithm
// offered a kernel. The one-hot self-words are set from the configuration
// and maintained incrementally from there; every goodness bit is then
// computed from the current configuration.
func newWordRuntime(e *Engine, kern sa.WordEval) *wordRuntime {
	n := e.g.N()
	wr := &wordRuntime{
		kern:  kern,
		self:  make([]uint64, n),
		sws:   make([]uint64, n),
		plane: make([]uint64, sa.PlaneWords(n)),
	}
	wr.offsets, wr.neighbors = e.g.CSR()
	for v, q := range e.cfg {
		wr.self[v] = 1 << uint(q)
	}
	e.res = growStates(e.res, n)
	sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, 0, n, wr.sws)
	// The transition outputs land in the staging scratch and are discarded;
	// only the goodness bits are kept.
	kern.EvalGood(e.cfg, wr.sws, e.res, wr.plane)
	return wr
}

// growStates returns b resliced to length k, reallocating when too small.
func growStates(b []sa.State, k int) []sa.State {
	if cap(b) < k {
		b = make([]sa.State, k)
	}
	return b[:k]
}

// refreshCSR re-fetches the graph's CSR arrays; call after any topology
// mutation (churn ApplyDelta re-compacts them in place and may replace the
// backing storage).
func (wr *wordRuntime) refreshCSR(e *Engine) {
	wr.offsets, wr.neighbors = e.g.CSR()
}

// planeAllOnes reports whether the whole goodness plane reads good (tail
// bits are forced 1, so this is the "every node good" test).
func (wr *wordRuntime) planeAllOnes() bool {
	for _, w := range wr.plane {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// stage is the word evaluator of the step loop: evaluate the ascending
// evaluation list against the immutable C_t into e.res with the fused
// kernel, refreshing the evaluated nodes' goodness bits. A list covering
// every node (every synchronous step) slices cfg and the node-indexed sense
// scratch directly and lets the kernel write the plane in place; sparser
// lists are gathered into buffers and their goodness bits scattered back.
// On a frontier engine, next == cur is the settled certificate (the kernel
// contract), so those nodes are settle-cleared exactly as in the scalar
// evaluator.
func (wr *wordRuntime) stage(e *Engine, eval []int) {
	n, k := e.g.N(), len(eval)
	e.res = growStates(e.res, k)
	if k == n {
		sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, 0, n, wr.sws)
		wr.kern.EvalGood(e.cfg, wr.sws, e.res, wr.plane)
	} else {
		if cap(wr.cur) < k {
			wr.cur = make([]sa.State, n)
			wr.good = make([]uint64, sa.PlaneWords(n))
		}
		cur, sws, good := wr.cur[:k], wr.sws[:k], wr.good[:sa.PlaneWords(k)]
		for i, v := range eval {
			cur[i] = e.cfg[v]
			sw := wr.self[v]
			for _, u := range wr.neighbors[wr.offsets[v]:wr.offsets[v+1]] {
				sw |= wr.self[u]
			}
			sws[i] = sw
		}
		wr.kern.EvalGood(cur, sws, e.res, good)
		for i, v := range eval {
			if good[i>>6]&(1<<uint(i&63)) != 0 {
				wr.plane[v>>6] |= 1 << uint(v&63)
			} else {
				wr.plane[v>>6] &^= 1 << uint(v&63)
			}
		}
	}
	if fr := e.fr; fr != nil {
		var settles uint64
		for i, v := range eval {
			if e.res[i] == e.cfg[v] {
				fr.set.Remove(v)
				settles++
			}
		}
		if settles != 0 {
			e.mx.Settled.Add(settles)
		}
	}
}
