package core

import (
	"math/bits"

	"thinunison/internal/sa"
)

// auTable is the precompiled transition table of an AlgAU instance: every
// Table 1 condition is phrased as a mask test in level-index space (the 2k
// positions of the φ-cycle), so Classify becomes a handful of word ops per
// node instead of decoding the signal state-by-state into boolean views.
// The table is built once at construction from the instance's level algebra
// and (possibly ablated) variant, and is immutable afterwards.
//
// Masks come in two parallel forms: the general stride-word rows serve any
// state space, and when the 2k level positions fit in one machine word
// (order ≤ 64, i.e. D ≤ 10) the single-word rows additionally power the
// register-only mask tests of classifyMasks. Their two entries are
// classifyWord, for a signal of one word (|Q| ≤ 64, D ≤ 4: the inner loop
// of the word-parallel kernel and the scalar Classify fast path), and
// Classify's two-word branch (D = 5 … 10). Only wider instances take the
// pooled stride-word path.
type auTable struct {
	k, order, numStates int
	stride              int  // words per level-index mask row
	single              bool // |Q| ≤ 64: a signal is one word
	rows                bool // order ≤ 64: the single-word rows are built

	// General stride-word rows, flat at row*stride.
	adj     []uint64 // able q: levels adjacent to λ(q); protection test
	aa      []uint64 // able q: {λ(q), φ(λ(q))}; AA subset test
	outward []uint64 // faulty ordinal o: Ψ>(λ) (Ψ≫ under EagerFA); FA guard
	inF     []int32  // able q: level index of ψ⁻¹(λ(q)), or −1 (AF cond. 2)
	afNext  []int32  // able q: encoded faulty successor, or −1 when |λ| < 2
	aaNext  []int32  // able q: Index(φ(λ(q)))
	faNext  []int32  // faulty ordinal o: Index(ψ⁻¹(λ))
	fmap    []int32  // faulty ordinal o: Index(λ)
	tail    uint64   // mask of the level-index bits in the last stride word

	// Single-word rows (valid iff rows): a level-index mask is one uint64;
	// the faulty sense bits, gathered into one word of faulty ordinals, are
	// remapped into level-index space by a shift-and-mask (ordinals < k−1
	// stay in place, the rest move up by two — the able levels ±1 have no
	// faulty turns).
	ableW uint64 // low 2k bits of the signal word
	lowF  uint64 // faulty ordinals that map to their own level index
	adjW  []uint64
	aaW   []uint64
	outW  []uint64
	inFW  []uint64
}

func buildAUTable(a *AU) *auTable {
	ls := a.ls
	k := ls.k
	order := 2 * k
	numStates := 4*k - 2
	stride := (order + 63) / 64
	t := &auTable{
		k: k, order: order, numStates: numStates,
		stride: stride,
		single: numStates <= 64,
		rows:   order <= 64,
		adj:    make([]uint64, order*stride),
		aa:     make([]uint64, order*stride),
		inF:    make([]int32, order),
		afNext: make([]int32, order),
		aaNext: make([]int32, order),
		fmap:   make([]int32, order-2),
		faNext: make([]int32, order-2),
	}
	t.outward = make([]uint64, (order-2)*stride)
	if rem := order & 63; rem != 0 {
		t.tail = 1<<uint(rem) - 1
	} else {
		t.tail = ^uint64(0)
	}
	set := func(row []uint64, base, i int) { row[base+i>>6] |= 1 << uint(i&63) }

	for i := 0; i < order; i++ {
		l := ls.FromIndex(i)
		// Adjacent(l, m) ⟺ the cyclic index distance of l and m is ≤ 1.
		set(t.adj, i*stride, (i+order-1)%order)
		set(t.adj, i*stride, i)
		set(t.adj, i*stride, (i+1)%order)
		set(t.aa, i*stride, i)
		set(t.aa, i*stride, (i+1)%order)
		t.aaNext[i] = int32((i + 1) % order)
		t.afNext[i] = -1
		if abs(l) >= 2 {
			t.afNext[i] = int32(order + a.faultyIndex(l))
		}
		t.inF[i] = -1
		if in, ok := ls.Psi(l, -1); ok && abs(in) >= 2 && !a.variant.DisableFaultPropagation {
			t.inF[i] = int32(ls.Index(in))
		}
	}
	for o := 0; o < order-2; o++ {
		l := a.faultyFromIndex(o)
		t.fmap[o] = int32(ls.Index(l))
		in, _ := ls.Psi(l, -1)
		t.faNext[o] = int32(ls.Index(in))
		start := int(abs(l)) + 1
		if a.variant.EagerFA {
			start++
		}
		for j := start; j <= k; j++ {
			out, _ := ls.Psi(l, j-int(abs(l)))
			set(t.outward, o*stride, ls.Index(out))
		}
	}

	if t.rows {
		t.ableW = 1<<uint(order) - 1
		t.lowF = 1<<uint(k-1) - 1
		t.adjW = make([]uint64, order)
		t.aaW = make([]uint64, order)
		t.inFW = make([]uint64, order)
		t.outW = make([]uint64, order-2)
		for i := 0; i < order; i++ {
			t.adjW[i] = t.adj[i*stride]
			t.aaW[i] = t.aa[i*stride]
			if li := t.inF[i]; li >= 0 {
				t.inFW[i] = 1 << uint(li)
			}
		}
		for o := 0; o < order-2; o++ {
			t.outW[o] = t.outward[o*stride]
		}
	}
	return t
}

// faultyLevels remaps a word of faulty ordinals (bit o: faulty state
// order+o sensed) into level-index space: ordinal o maps to bit o for
// o < k−1 and to bit o+2 otherwise (λ = ±1 has no faulty turn, leaving a
// two-bit gap).
func (t *auTable) faultyLevels(fBits uint64) uint64 {
	return fBits&t.lowF | fBits>>uint(t.k-1)<<uint(t.k+1)
}

// classifyWord is the Table 1 decision procedure over a one-word signal:
// bit q of sw reports that state q is sensed. Valid only when t.single.
func (t *auTable) classifyWord(q sa.State, sw uint64) (TransitionType, sa.State) {
	return t.classifyMasks(q, sw, sw>>uint(t.order))
}

// classifyMasks runs the Table 1 mask tests of a node in state q that
// senses the able levels of able (bit i: able state i; bits from order up
// are ignored) and the faulty ordinals of fBits. Valid only when t.rows.
func (t *auTable) classifyMasks(q sa.State, able, fBits uint64) (TransitionType, sa.State) {
	fLvl := t.faultyLevels(fBits)
	lm := able&t.ableW | fLvl
	if q >= t.order { // faulty turn: FA iff nothing outwards is sensed
		o := q - t.order
		if lm&t.outW[o] != 0 {
			return None, q
		}
		return FA, sa.State(t.faNext[o])
	}
	unprot := lm&^t.adjW[q] != 0
	if af := t.afNext[q]; af >= 0 && (unprot || t.inFW[q]&fLvl != 0) {
		return AF, sa.State(af)
	}
	if !unprot && fLvl == 0 && lm&^t.aaW[q] == 0 {
		return AA, sa.State(t.aaNext[q])
	}
	return None, q
}

// goodWord is the good-node predicate over a one-word inclusive-neighborhood
// signal: the node is able, senses no faulty turn, and every sensed level is
// adjacent to its own (i.e. all incident edges are protected). EvalGood
// falls back to it for nodes off the protected-able fast path when it writes
// the goodness plane a word engine certifies its steps with.
func (t *auTable) goodWord(q sa.State, sw uint64) bool {
	return q < t.order && sw>>uint(t.order) == 0 && sw&t.ableW&^t.adjW[q] == 0
}

// tscratch is the per-classification scratch of the general (multi-word)
// table path, pooled on the AU instance so Classify stays allocation-free.
type tscratch struct {
	lm, fLvl []uint64
}

// classifySig is the general-width Table 1 decision procedure: it projects
// the signal into level-index masks (able bits copied word-wise, faulty bits
// remapped via fmap) and runs the same mask tests as classifyWord over
// stride words.
func (t *auTable) classifySig(q sa.State, sig sa.Signal, s *tscratch) (TransitionType, sa.State) {
	words := sig.Words()
	if cap(s.lm) < t.stride {
		s.lm = make([]uint64, t.stride)
		s.fLvl = make([]uint64, t.stride)
	}
	lm := s.lm[:t.stride]
	fLvl := s.fLvl[:t.stride]
	for w := range lm {
		lm[w] = words[w]
		fLvl[w] = 0
	}
	lm[t.stride-1] &= t.tail
	anyF := false
	for w := t.order >> 6; w < len(words); w++ {
		ww := words[w]
		if w == t.order>>6 {
			ww &= ^uint64(0) << uint(t.order&63)
		}
		for ww != 0 {
			o := w<<6 + bits.TrailingZeros64(ww) - t.order
			ww &= ww - 1
			if o >= len(t.fmap) {
				continue
			}
			li := int(t.fmap[o])
			lm[li>>6] |= 1 << uint(li&63)
			fLvl[li>>6] |= 1 << uint(li&63)
			anyF = true
		}
	}

	if q >= t.order { // faulty turn
		o := q - t.order
		base := o * t.stride
		for w := range lm {
			if lm[w]&t.outward[base+w] != 0 {
				return None, q
			}
		}
		return FA, sa.State(t.faNext[o])
	}
	base := q * t.stride
	unprot := false
	for w := range lm {
		if lm[w]&^t.adj[base+w] != 0 {
			unprot = true
			break
		}
	}
	if af := t.afNext[q]; af >= 0 {
		inF := false
		if li := t.inF[q]; li >= 0 {
			inF = fLvl[li>>6]&(1<<uint(li&63)) != 0
		}
		if unprot || inF {
			return AF, sa.State(af)
		}
	}
	if !unprot && !anyF {
		okAA := true
		for w := range lm {
			if lm[w]&^t.aa[base+w] != 0 {
				okAA = false
				break
			}
		}
		if okAA {
			return AA, sa.State(t.aaNext[q])
		}
	}
	return None, q
}

// wordEval adapts the precompiled table to the sa.WordEval batch contract.
// AlgAU is deterministic and coin-free, so EvalGood draws nothing from any
// rng stream and next[i] == cur[i] is exactly the Table 1 None verdict —
// the settled certificate the frontier machinery relies on.
type wordEval struct {
	t *auTable
}

var _ sa.WordEval = (*wordEval)(nil)

// EvalGood implements sa.WordEval: the transition fused with the good-node
// predicate, writing one goodness bit per slot (tail bits forced to 1).
func (w *wordEval) EvalGood(cur []sa.State, sws []uint64, next []sa.State, good []uint64) {
	t := w.t
	sh := uint(t.order)
	var acc uint64
	for i, q := range cur {
		sw := sws[i]
		// Protected-able fast path: a node that is able, senses no faulty
		// turn and has every incident edge protected is good by definition
		// and can only fire AA or None (AF needs an unprotected edge or an
		// inward faulty turn, both absent), decided by one more mask test —
		// the dominant case in the dense steady regime, where the full
		// classifyWord call (not inlinable) would otherwise bound
		// throughput.
		if q < t.order && sw>>sh == 0 && sw&^t.adjW[q] == 0 {
			acc |= 1 << uint(i&63)
			if sw&^t.aaW[q] == 0 {
				next[i] = sa.State(t.aaNext[q])
			} else {
				next[i] = q
			}
		} else {
			_, nx := t.classifyWord(q, sw)
			next[i] = nx
			if t.goodWord(q, sw) {
				acc |= 1 << uint(i&63)
			}
		}
		if i&63 == 63 {
			good[i>>6] = acc
			acc = 0
		}
	}
	if rem := len(cur) & 63; rem != 0 {
		// Force the tail bits good so all-ones means an all-good batch.
		good[len(cur)>>6] = acc | ^uint64(0)<<uint(rem)
	}
}
