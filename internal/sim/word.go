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
// evaluator plug (wordRuntime.stage); activation, lanes, certification and
// apply are shared with the scalar path, so word runs are byte-identical to
// scalar runs in every mode (dense/frontier, any Parallelism, churn), which
// the differential suites enforce.
//
// The kernel's fused goodness plane (WordEval.EvalGood) additionally powers
// an O(n/64) per-step stabilization verdict: when a step provably refreshed
// the goodness bit of every node whose signal may have drifted — a full
// dense activation, or a frontier step that evaluated the entire frontier —
// and the plane reads all-ones, the configuration at the start of the step
// was graph-good. Since an all-good configuration stays good under any set
// of fired transitions (AF needs an unprotected or inward-faulty sense, FA
// needs a faulty node, and AA's Λ ⊆ {ℓ, φℓ} guard preserves pairwise
// adjacency), the verdict extends to the post-step configuration and is
// handed to the observer via WordVerdictObserver.NoteWordStep, letting
// core.GoodMonitor answer Good() from a cached bit instead of a scan.

// WordVerdictObserver is an optional ConfigObserver extension consuming the
// word engine's per-step goodness verdict. After every word-parallel step the
// engine calls NoteWordStep(certified): certified == true asserts that every
// node satisfies the algorithm's local legitimacy predicate in the post-step
// configuration (derived from the kernel's goodness plane plus the
// transition-closure argument above); false makes no claim either way.
// Any Apply delivered after a NoteWordStep supersedes its verdict.
type WordVerdictObserver interface {
	ConfigObserver
	NoteWordStep(certified bool)
}

// WordBatchObserver is an optional WordVerdictObserver extension taking a
// certified step's changes as one batch. When the pre-apply configuration
// was certified graph-good (and hence, by closure, the post-step one is
// too), a sequential word engine skips the per-node Apply stream — whose
// O(deg) bookkeeping dominates steady steps where every clock ticks — and
// delivers the changed nodes plus the post-step configuration in a single
// call, followed by the usual NoteWordStep(true). The observer must absorb
// the batch equivalently to the per-node stream (core.GoodMonitor refreshes
// its mirror and transition counters and lets its goodness counters go
// stale until the next scalar touch). Uncertified steps always use the
// per-node stream.
type WordBatchObserver interface {
	WordVerdictObserver
	ApplyWordBatch(changed []int, cfg sa.Config)
}

// wordRuntime holds the word-parallel execution state of an engine. The
// scalar configuration e.cfg stays authoritative; the runtime mirrors it as
// per-node self-words (self[v] = 1 << cfg[v], the one-word signal
// contribution of v) maintained by every state write (Engine.write). The
// goodness-plane slabs and gather buffers live in the lanes.
type wordRuntime struct {
	kern sa.WordEval

	// Raw CSR adjacency, re-fetched after every churn re-compaction (the
	// graph may replace the backing arrays).
	offsets   []int
	neighbors []int

	self []uint64 // self[v] = 1 << cfg[v]
	sws  []uint64 // node-indexed sense-word scratch of the contiguous path

	// certified is the completed step's verdict (see WordVerdictObserver).
	certified bool
}

// newWordRuntime builds the word runtime for an engine whose algorithm
// offered a kernel. The self-words are materialized through the bit-plane
// codec: pack the scalar configuration into sa.Planes, derive the one-hot
// self-words, and maintain them incrementally from there.
func newWordRuntime(e *Engine, kern sa.WordEval) *wordRuntime {
	n := e.g.N()
	wr := &wordRuntime{
		kern: kern,
		self: make([]uint64, n),
		sws:  make([]uint64, n),
	}
	wr.offsets, wr.neighbors = e.g.CSR()
	planes := sa.NewPlanes(n, e.alg.NumStates())
	planes.Pack(e.cfg)
	planes.SelfWords(wr.self)
	wr.rebuildSlabs(e)
	return wr
}

// rebuildSlabs (re)carves one goodness slab per lane — each its own
// allocation, so parallel workers never read-modify-write a shared word
// (shard bounds are not 64-aligned) — and refreshes every bit from the
// current configuration. Called at construction and after a churn-triggered
// repartition (the lane ranges move, so the old slab layout is meaningless).
func (wr *wordRuntime) rebuildSlabs(e *Engine) {
	for s := range e.lanes {
		l := &e.lanes[s]
		l.slab = make([]uint64, sa.PlaneWords(l.hi-l.lo))
		l.res = growStates(l.res, l.hi-l.lo)
		sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, l.lo, l.hi, wr.sws[l.lo:l.hi])
		// The transition outputs land in the lane's scratch and are
		// discarded; only the goodness bits are kept.
		wr.kern.EvalGood(e.cfg[l.lo:l.hi], wr.sws[l.lo:l.hi], l.res, l.slab)
	}
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

// slabsAllOnes reports whether the whole goodness plane reads good (slab
// tails are forced 1, so this is the "every node good" test).
func (e *Engine) slabsAllOnes() bool {
	for s := range e.lanes {
		for _, w := range e.lanes[s].slab {
			if w != ^uint64(0) {
				return false
			}
		}
	}
	return true
}

// stage is the word evaluator of the step loop: evaluate lane l's bucket
// against the immutable C_t into l.res with the fused kernel, refreshing the
// evaluated nodes' goodness bits. A bucket covering the lane's whole range
// (every synchronous step) slices cfg and the node-indexed sense scratch
// directly and lets the kernel write the slab in place; sparser buckets are
// gathered into lane buffers and their goodness bits scattered back. On a
// frontier engine, next == cur is the settled certificate (the kernel
// contract), so those nodes are settle-cleared exactly as in the scalar
// evaluator.
func (wr *wordRuntime) stage(e *Engine, l *lane) {
	k := len(l.bucket)
	l.res = growStates(l.res, k)
	if k == l.hi-l.lo {
		sws := wr.sws[l.lo:l.hi]
		sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, l.lo, l.hi, sws)
		wr.kern.EvalGood(e.cfg[l.lo:l.hi], sws, l.res, l.slab)
	} else {
		if cap(l.cur) < k {
			l.cur = make([]sa.State, l.hi-l.lo)
			l.sws = make([]uint64, l.hi-l.lo)
			l.good = make([]uint64, sa.PlaneWords(l.hi-l.lo))
		}
		cur, sws, good := l.cur[:k], l.sws[:k], l.good[:sa.PlaneWords(k)]
		for i, v := range l.bucket {
			cur[i] = e.cfg[v]
			sw := wr.self[v]
			for _, u := range wr.neighbors[wr.offsets[v]:wr.offsets[v+1]] {
				sw |= wr.self[u]
			}
			sws[i] = sw
		}
		wr.kern.EvalGood(cur, sws, l.res, good)
		for i, v := range l.bucket {
			b := v - l.lo
			if good[i>>6]&(1<<uint(i&63)) != 0 {
				l.slab[b>>6] |= 1 << uint(b&63)
			} else {
				l.slab[b>>6] &^= 1 << uint(b&63)
			}
		}
	}
	if fr := e.fr; fr != nil {
		var settles uint64
		for i, v := range l.bucket {
			if l.res[i] == e.cfg[v] {
				fr.set.Remove(v)
				settles++
			}
		}
		if settles != 0 {
			e.mx.Settled.Add(settles)
		}
	}
}
