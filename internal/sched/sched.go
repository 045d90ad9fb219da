// Package sched implements the activation schedulers ("daemons") of the SA
// model: an adversary chooses, for every step t, the subset A_t ⊆ V of nodes
// activated at t, subject only to the fairness requirement that every node
// is activated infinitely often.
//
// The package also provides RoundTracker, which implements the round
// operator ϱ of the paper: ϱ(t) is the earliest time such that every node is
// activated at least once in [t, ϱ(t)), and R(i) = ϱ^i(0). All stabilization
// times in the paper (and in our experiments) are measured in rounds R(i).
package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"thinunison/internal/randx"
	"thinunison/internal/snapshot"
)

// Scheduler chooses the activation set for each step. Implementations decide
// A_t as a function of the step index and their own state; they are oblivious
// to node coin tosses, matching the paper's adversary. The returned slice is
// only valid until the next call.
type Scheduler interface {
	// Activations returns A_t for step t over n nodes. It must eventually
	// activate every node (fairness); implementations in this package all
	// guarantee a bounded round length.
	Activations(t int, n int) []int

	// Name returns a short identifier for reports.
	Name() string
}

// Canonical returns the activation set in canonical form: strictly
// ascending node order, each node at most once. The built-in schedulers
// already emit canonical sets and pass through untouched; scripted or
// custom schedulers with unsorted or duplicated lists are copied, sorted
// and deduplicated into buf. Both engines step the canonical set, so a
// duplicated activation cannot apply (or draw coins for) a node twice, and
// observers see ascending node order.
func Canonical(activated []int, buf *[]int) []int {
	canonical := true
	for i := 1; i < len(activated); i++ {
		if activated[i] <= activated[i-1] {
			canonical = false
			break
		}
	}
	if canonical {
		return activated
	}
	b := append((*buf)[:0], activated...)
	sort.Ints(b)
	k := 0
	for _, v := range b {
		if k == 0 || v != b[k-1] {
			b[k] = v
			k++
		}
	}
	*buf = b[:k]
	return *buf
}

// Frontier is the read-only view of a frontier-sparse engine's dirty set
// that SparseActivator implementations consult: the nodes whose activation
// could do anything (everything else is certified settled — a deterministic
// self-loop until its neighborhood changes). It is implemented by
// frontier.Set; this package only needs the query surface.
type Frontier interface {
	// Len returns the number of unsettled nodes.
	Len() int
	// Contains reports whether node v is unsettled.
	Contains(v int) bool
	// AppendTo appends the unsettled nodes to buf in ascending node order
	// and returns the extended slice.
	AppendTo(buf []int) []int
}

// Coverage summarizes the full activation set A_t of a sparse step for
// round tracking, without materializing it when it is large: Full means
// A_t = V, AllBut >= 0 means A_t = V \ {AllBut}, and otherwise List is A_t
// explicitly (only used by schedulers whose A_t is small anyway).
type Coverage struct {
	Full   bool
	AllBut int
	List   []int
}

// SparseActivator is an optional Scheduler extension for frontier-sparse
// engines: SparseActivations returns A_t already intersected with the
// engine's dirty frontier, so dense schedulers stop materializing (and the
// engine stops scanning) O(n) activation slices when almost every node is
// settled. eval is A_t ∩ frontier in strictly ascending node order (the
// canonical activation form); cov describes the full A_t for the round
// operator, which counts scheduler activations regardless of whether the
// engine had to evaluate them. The returned slices are only valid until
// the next call.
type SparseActivator interface {
	Scheduler
	SparseActivations(t, n int, f Frontier) (eval []int, cov Coverage)
}

// Checkpointer is an optional Scheduler extension for engines that support
// checkpoint/restore (sim.SaveState): schedulers whose activation choices
// depend on internal mutable state expose that state as an opaque payload.
// Restoring the payload into a freshly constructed scheduler of the same
// kind and parameters makes its future activation sequence byte-identical
// to the saved run's.
//
// Stateless schedulers (Synchronous, RoundRobin, Laggard, Scripted — whose
// activations are pure functions of the step index and construction
// parameters) deliberately do not implement the interface; engines simply
// skip the scheduler section for them. The stateful schedulers checkpoint
// only when they own their rng (NewRandomSubsetSeeded, NewPermutedSeeded),
// because an externally supplied *rand.Rand cannot be serialized without
// reaching into the generator's internals.
type Checkpointer interface {
	Scheduler

	// CheckpointState serializes the scheduler's mutable state. It fails if
	// the scheduler was built around an external rng it cannot reposition.
	CheckpointState() ([]byte, error)

	// RestoreState restores a payload from CheckpointState into this
	// scheduler, which must have been constructed with the same parameters
	// (including the seed) as the saved one. n is the node count of the
	// restored engine and step the number of steps it has run; per-node
	// state sized for another graph, or out of reach after step steps, is
	// rejected.
	RestoreState(data []byte, n, step int) error
}

// Synchronous activates every node at every step: A_t = V, so R(i) = i.
type Synchronous struct {
	buf  []int
	sbuf []int // frontier-intersection buffer for SparseActivations
}

// NewSynchronous returns the synchronous scheduler.
func NewSynchronous() *Synchronous { return &Synchronous{} }

// Activations returns all n nodes.
func (s *Synchronous) Activations(_ int, n int) []int {
	if cap(s.buf) < n {
		s.buf = make([]int, n)
		for i := range s.buf {
			s.buf[i] = i
		}
	}
	return s.buf[:n]
}

// SparseActivations implements SparseActivator: A_t = V, so the evaluation
// set is exactly the frontier — O(|frontier|) instead of O(n).
func (s *Synchronous) SparseActivations(_ int, n int, f Frontier) ([]int, Coverage) {
	s.sbuf = f.AppendTo(sparseBuf(s.sbuf, n))
	return s.sbuf, Coverage{Full: true, AllBut: -1}
}

// sparseBuf returns buf emptied, with room for all n nodes: a frontier
// holds at most n, so the buffer is allocated once rather than grown by
// append in every run.
func sparseBuf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, 0, n)
	}
	return buf[:0]
}

// Name implements Scheduler.
func (s *Synchronous) Name() string { return "synchronous" }

// RoundRobin activates exactly one node per step, cycling in a fixed order.
// It is the "central daemon" extreme: rounds have length exactly n.
type RoundRobin struct{ buf [1]int }

// NewRoundRobin returns the round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Activations returns {t mod n}.
func (s *RoundRobin) Activations(t int, n int) []int {
	s.buf[0] = t % n
	return s.buf[:]
}

// SparseActivations implements SparseActivator: A_t = {t mod n}, evaluated
// only when that node is unsettled.
func (s *RoundRobin) SparseActivations(t, n int, f Frontier) ([]int, Coverage) {
	s.buf[0] = t % n
	cov := Coverage{AllBut: -1, List: s.buf[:]}
	if f.Contains(s.buf[0]) {
		return s.buf[:], cov
	}
	return s.buf[:0], cov
}

// Name implements Scheduler.
func (s *RoundRobin) Name() string { return "round-robin" }

// RandomSubset activates each node independently with probability p each
// step, but closes every round within maxGap steps by force-activating nodes
// that have starved, keeping the schedule fair with bounded rounds.
type RandomSubset struct {
	p      float64
	maxGap int
	rng    *rand.Rand
	last   []int
	buf    []int

	// seed/src are set by NewRandomSubsetSeeded only: the internally owned
	// source whose saved state makes the scheduler checkpointable.
	seed int64
	src  *randx.Source
}

// NewRandomSubset returns a random-subset scheduler with inclusion
// probability p, force-activating any node that has not run for maxGap
// steps. maxGap <= 0 defaults to 64.
func NewRandomSubset(p float64, maxGap int, rng *rand.Rand) *RandomSubset {
	if maxGap <= 0 {
		maxGap = 64
	}
	return &RandomSubset{p: p, maxGap: maxGap, rng: rng}
}

// NewRandomSubsetSeeded is the checkpointable variant of NewRandomSubset:
// the scheduler owns its rng, a randx.Source seeded from seed whose state
// checkpoints record. The source draws what rand.NewSource draws, so the
// activation sequence is byte-identical to
// NewRandomSubset(p, maxGap, rand.New(rand.NewSource(seed))).
func NewRandomSubsetSeeded(p float64, maxGap int, seed int64) *RandomSubset {
	s := NewRandomSubset(p, maxGap, nil)
	s.seed = seed
	s.src = randx.NewSource(seed)
	s.rng = rand.New(s.src)
	return s
}

// Activations implements Scheduler.
func (s *RandomSubset) Activations(t int, n int) []int {
	// Grow the starvation-gap state without wiping history: nodes first
	// seen now start their gap at t, existing nodes keep their recorded
	// last activation. Entries beyond n are retained so a shrink-and-regrow
	// of the node count cannot reset a node's gap either.
	for len(s.last) < n {
		s.last = append(s.last, t)
	}
	s.buf = s.buf[:0]
	for v := 0; v < n; v++ {
		if s.rng.Float64() < s.p || t-s.last[v] >= s.maxGap {
			s.buf = append(s.buf, v)
			s.last[v] = t
		}
	}
	if len(s.buf) == 0 { // never emit an empty step
		v := s.rng.Intn(n)
		s.buf = append(s.buf, v)
		s.last[v] = t
	}
	return s.buf
}

// Name implements Scheduler.
func (s *RandomSubset) Name() string { return fmt.Sprintf("random-subset(p=%.2f)", s.p) }

// CheckpointState implements Checkpointer for seeded schedulers: it records
// the rng state and the per-node starvation gaps.
func (s *RandomSubset) CheckpointState() ([]byte, error) {
	if s.src == nil {
		return nil, fmt.Errorf("sched: random-subset built around an external rng is not checkpointable; use NewRandomSubsetSeeded")
	}
	var e snapshot.Enc
	e.I64(s.seed)
	e.U64s(s.src.State())
	e.Ints(s.last)
	return e.Bytes(), nil
}

// RestoreState implements Checkpointer; the receiver must come from
// NewRandomSubsetSeeded with the same seed as the saved scheduler. The gap
// vector is empty before the first step. After it, the first n entries
// hold each node's last activation, which Activations keeps within the
// last maxGap steps; any other vector would be padded or force-activate
// nodes differently on the next step, silently leaving the checkpointed
// trajectory.
func (s *RandomSubset) RestoreState(data []byte, n, step int) error {
	if s.src == nil {
		return fmt.Errorf("sched: random-subset built around an external rng is not restorable; use NewRandomSubsetSeeded")
	}
	d := snapshot.NewDec(data)
	seed := d.I64()
	state := d.U64s()
	last := d.Ints()
	if err := d.Done(); err != nil {
		return err
	}
	if seed != s.seed {
		return fmt.Errorf("sched: random-subset snapshot for seed %d restored into seed %d", seed, s.seed)
	}
	if step == 0 && len(last) != 0 || step > 0 && len(last) < n {
		return fmt.Errorf("sched: random-subset snapshot after %d steps has gaps for %d of %d nodes", step, len(last), n)
	}
	for v := 0; v < n && step > 0; v++ {
		if last[v] < step-s.maxGap || last[v] >= step {
			return fmt.Errorf("sched: random-subset snapshot has node %d last activated at step %d, outside [%d, %d)",
				v, last[v], step-s.maxGap, step)
		}
	}
	if err := s.src.SetState(state); err != nil {
		return fmt.Errorf("sched: random-subset snapshot: %w", err)
	}
	s.last = last
	return nil
}

// Laggard activates all nodes except one designated laggard every step; the
// laggard runs only once every period steps. This is a classic adversarial
// asynchrony pattern: one node is almost always stale.
type Laggard struct {
	victim int
	period int
	buf    []int
	sbuf   []int // frontier-intersection buffer for SparseActivations
}

// NewLaggard returns a laggard scheduler starving node victim to one
// activation per period steps (period >= 1).
func NewLaggard(victim, period int) *Laggard {
	if period < 1 {
		period = 1
	}
	return &Laggard{victim: victim, period: period}
}

// Activations implements Scheduler.
func (s *Laggard) Activations(t int, n int) []int {
	s.buf = s.buf[:0]
	for v := 0; v < n; v++ {
		if v == s.victim%n {
			if t%s.period == s.period-1 {
				s.buf = append(s.buf, v)
			}
			continue
		}
		s.buf = append(s.buf, v)
	}
	if len(s.buf) == 0 {
		// n == 1 with period > 1: the victim is the only node, and an empty
		// activation set would stall the round operator forever. Liveness
		// demands a non-empty step, so the schedule degenerates to
		// activating the lone node every step.
		s.buf = append(s.buf, s.victim%n)
	}
	return s.buf
}

// SparseActivations implements SparseActivator. The laggard schedule is the
// dense quiescent extreme — n-1 activations per step of which almost all
// are settled self-loops between victim wake-ups — so the sparse path is
// where frontier execution turns Θ(n) steps into O(|frontier|) ones: A_t is
// V on the victim's firing steps and V \ {victim} otherwise, both
// expressible to the round tracker without materializing the slice.
func (s *Laggard) SparseActivations(t, n int, f Frontier) ([]int, Coverage) {
	vic := s.victim % n
	s.sbuf = f.AppendTo(sparseBuf(s.sbuf, n))
	if t%s.period == s.period-1 {
		return s.sbuf, Coverage{Full: true, AllBut: -1}
	}
	if n == 1 {
		// The victim is the only node; the dense schedule degenerates to
		// activating it every step (see Activations), so mirror that.
		s.buf = append(s.buf[:0], vic)
		return s.sbuf, Coverage{AllBut: -1, List: s.buf}
	}
	for i, v := range s.sbuf {
		if v == vic {
			s.sbuf = append(s.sbuf[:i], s.sbuf[i+1:]...)
			break
		}
	}
	return s.sbuf, Coverage{AllBut: vic}
}

// Name implements Scheduler.
func (s *Laggard) Name() string {
	return fmt.Sprintf("laggard(victim=%d, period=%d)", s.victim, s.period)
}

// Scripted replays an explicit activation script; after the script is
// exhausted it falls back to synchronous activation (keeping the schedule
// fair). It is used to reproduce hand-crafted executions such as the
// Figure 2 live-lock.
type Scripted struct {
	script   [][]int
	fallback *Synchronous
	loop     bool
}

// NewScripted returns a scheduler replaying script; if loop is true the
// script repeats forever, otherwise the schedule becomes synchronous after
// the script ends.
func NewScripted(script [][]int, loop bool) *Scripted {
	return &Scripted{script: script, fallback: NewSynchronous(), loop: loop}
}

// Activations implements Scheduler.
func (s *Scripted) Activations(t int, n int) []int {
	if len(s.script) == 0 {
		return s.fallback.Activations(t, n)
	}
	if t < len(s.script) {
		return s.script[t]
	}
	if s.loop {
		return s.script[t%len(s.script)]
	}
	return s.fallback.Activations(t, n)
}

// Name implements Scheduler.
func (s *Scripted) Name() string { return "scripted" }

// Permuted activates nodes one at a time following a fresh random permutation
// each round; every round has length exactly n (a fair "distributed daemon"
// with maximal interleaving).
type Permuted struct {
	rng  *rand.Rand
	perm []int
	buf  [1]int

	// The scheduler owns its rng: a source whose saved state makes it
	// checkpointable.
	seed int64
	src  *randx.Source
}

// ByName builds the named CLI scheduler from a base seed — the recipe book
// shared by the unisonsim checkpoint path and campaign fork mode. A
// snapshot's runmeta section records only (name, seed); every consumer must
// rebuild the scheduler through this one mapping, or the restored
// scheduler's parameters will not match the checkpointed ones. The
// stochastic entries use the seeded constructors, so everything ByName
// returns is checkpointable.
func ByName(name string, seed int64) (Scheduler, error) {
	switch name {
	case "sync":
		return NewSynchronous(), nil
	case "rr":
		return NewRoundRobin(), nil
	case "random":
		return NewRandomSubsetSeeded(0.4, 16, seed+1), nil
	case "laggard":
		return NewLaggard(0, 4), nil
	case "permuted":
		return NewPermutedSeeded(seed + 2), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// NewPermutedSeeded returns the per-round random permutation scheduler. It
// owns its rng, a randx.Source seeded from seed whose state checkpoints
// record; the source draws what rand.NewSource(seed) draws.
func NewPermutedSeeded(seed int64) *Permuted {
	s := &Permuted{seed: seed, src: randx.NewSource(seed)}
	s.rng = rand.New(s.src)
	return s
}

// Activations implements Scheduler.
func (s *Permuted) Activations(t int, n int) []int {
	if len(s.perm) != n {
		s.perm = make([]int, n)
		for i := range s.perm {
			s.perm[i] = i
		}
		s.reshuffle()
	} else if t%n == 0 {
		s.reshuffle()
	}
	s.buf[0] = s.perm[t%n]
	return s.buf[:]
}

// reshuffle runs a Fisher–Yates pass over the persistent permutation buffer,
// so steady-state operation allocates nothing.
func (s *Permuted) reshuffle() {
	for i := len(s.perm) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
}

// Name implements Scheduler.
func (s *Permuted) Name() string { return "permuted" }

// CheckpointState implements Checkpointer: it records the rng state and the
// current mid-cycle permutation.
func (s *Permuted) CheckpointState() ([]byte, error) {
	var e snapshot.Enc
	e.I64(s.seed)
	e.U64s(s.src.State())
	e.Ints(s.perm)
	return e.Bytes(), nil
}

// RestoreState implements Checkpointer; the receiver must come from
// NewPermutedSeeded with the same seed as the saved scheduler. The saved
// permutation is empty before the first step and a permutation of the n
// nodes after it; any other would be rebuilt and reshuffled on the next
// step, silently leaving the checkpointed trajectory.
func (s *Permuted) RestoreState(data []byte, n, step int) error {
	d := snapshot.NewDec(data)
	seed := d.I64()
	state := d.U64s()
	perm := d.Ints()
	if err := d.Done(); err != nil {
		return err
	}
	if seed != s.seed {
		return fmt.Errorf("sched: permuted snapshot for seed %d restored into seed %d", seed, s.seed)
	}
	if (step == 0) != (len(perm) == 0) {
		return fmt.Errorf("sched: permuted snapshot after %d steps has a permutation of %d nodes", step, len(perm))
	}
	if err := randx.CheckPerm(perm, n); err != nil {
		return fmt.Errorf("sched: permuted snapshot: %w", err)
	}
	if err := s.src.SetState(state); err != nil {
		return fmt.Errorf("sched: permuted snapshot: %w", err)
	}
	s.perm = perm
	return nil
}

// RoundTracker incrementally computes the round operator ϱ from an observed
// activation sequence: Rounds is the largest i with R(i) <= the steps
// observed, where R(0) = 0 < R(1) < R(2) < ... are the round boundaries.
// Feed it each step's activation set in order; a caller that needs the
// boundaries themselves records the step at which Rounds grows.
//
// Tracking is allocation-free: instead of a rebuilt pending set per round
// it stamps each node with the round in which it was last seen, so a round
// completes when the per-round seen counter reaches n.
type RoundTracker struct {
	n         int
	seen      []int // seen[v] = stamp of the round v was last activated in
	stamp     int   // current round's stamp (rounds + 1; seen is zeroed once)
	remaining int   // nodes not yet activated in the current round
	pending   int   // >= 0: exactly this node is missing from the current round
	rounds    int
}

// NewRoundTracker returns a tracker for n nodes. R(0) = 0 is implicit.
func NewRoundTracker(n int) *RoundTracker {
	return &RoundTracker{
		n:         n,
		seen:      make([]int, n),
		stamp:     1,
		remaining: n,
		pending:   -1,
	}
}

// completeRound closes the current round at the current step count.
func (t *RoundTracker) completeRound() {
	t.rounds++
	t.stamp++
	t.remaining = t.n
	t.pending = -1
}

// Observe records the activation set of the current step. It must be called
// once per step, in order.
func (t *RoundTracker) Observe(activated []int) {
	if t.pending >= 0 {
		// Every node but t.pending has already been activated this round.
		for _, v := range activated {
			if v == t.pending {
				t.completeRound()
				return
			}
		}
		return
	}
	for _, v := range activated {
		if t.seen[v] != t.stamp {
			t.seen[v] = t.stamp
			t.remaining--
		}
	}
	if t.remaining == 0 {
		t.completeRound()
	}
}

// ObserveFull records a step with A_t = V in O(1): the round necessarily
// completes at this step. Sparse engines use it so the synchronous schedule
// never materializes (or scans) an O(n) activation slice.
func (t *RoundTracker) ObserveFull() {
	t.completeRound()
}

// ObserveAllBut records a step with A_t = V \ {v} in O(1): the round
// completes iff v was already activated earlier in the round; otherwise v
// becomes the round's only missing node.
func (t *RoundTracker) ObserveAllBut(v int) {
	if t.pending >= 0 {
		if t.pending != v {
			t.completeRound()
		}
		return
	}
	if t.seen[v] == t.stamp {
		t.completeRound()
		return
	}
	t.pending = v
}

// Rounds returns the number of completed rounds, i.e. the largest i with
// R(i) <= steps observed.
func (t *RoundTracker) Rounds() int { return t.rounds }

// CheckpointState serializes the tracker — the round count, the pending
// node and the in-progress round's activation stamps — so a restored
// tracker continues the round operator exactly where the saved one
// stopped.
//
// The per-node stamps are normalized to booleans (activated in the current
// round or not), which is the only property Observe reads; the absolute
// stamp value is an implementation detail of the zero-free reset, and the
// count of nodes still missing is derived from the stamps on restore.
func (t *RoundTracker) CheckpointState() []byte {
	var e snapshot.Enc
	e.Int(t.rounds)
	e.Int(t.pending)
	e.IntsFunc(t.n, func(v int) int {
		if t.seen[v] == t.stamp {
			return 1
		}
		return 0
	})
	return e.Bytes()
}

// RestoreRoundTracker rebuilds a tracker for n nodes from CheckpointState,
// saved after step steps. It rejects a state no run reaches: more rounds
// than steps, a stamp other than 0 or 1, a pending node out of range or
// already stamped, a round with every node stamped and none pending
// (which would have completed), or any activation before the first step.
// The count of missing nodes is derived from
// the stamps; it is exact when no node is pending, and otherwise unread
// until the round completes and resets it.
func RestoreRoundTracker(n, step int, data []byte) (*RoundTracker, error) {
	d := snapshot.NewDec(data)
	t := NewRoundTracker(n)
	t.rounds = d.Int()
	t.pending = d.Int()
	bad := -1 // first node whose stamp is neither 0 nor 1
	got := d.IntsFunc(func(v, on int) {
		switch {
		case v >= n:
		case on == 1:
			t.seen[v] = t.stamp
			t.remaining--
		case on != 0 && bad < 0:
			bad = v
		}
	})
	if err := d.Done(); err != nil {
		return nil, err
	}
	switch {
	case got != n:
		return nil, fmt.Errorf("sched: tracker snapshot has %d stamps for %d nodes", got, n)
	case bad >= 0:
		return nil, fmt.Errorf("sched: tracker snapshot stamp of node %d is neither 0 nor 1", bad)
	case t.rounds < 0 || t.rounds > step:
		return nil, fmt.Errorf("sched: tracker snapshot has %d rounds after %d steps", t.rounds, step)
	case t.pending < -1 || t.pending >= n:
		return nil, fmt.Errorf("sched: tracker snapshot pending node %d out of range [-1, %d)", t.pending, n)
	case t.pending >= 0 && t.seen[t.pending] == t.stamp, t.pending < 0 && t.remaining == 0,
		step == 0 && (t.pending >= 0 || t.remaining != n):
		return nil, fmt.Errorf("sched: tracker snapshot with pending node %d and %d of %d nodes stamped is unreachable after %d steps",
			t.pending, n-t.remaining, n, step)
	}
	return t, nil
}
