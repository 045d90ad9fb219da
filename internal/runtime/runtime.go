// Package runtime executes SA algorithms with real concurrency: one
// goroutine per node, each repeatedly sensing its neighbors' published
// states and publishing its own transition. The Go scheduler plays the role
// of the asynchronous adversary — activation interleavings are arbitrary,
// and a node may read a mix of old and new neighbor states, which is an even
// weaker (more hostile) consistency regime than the paper's step model.
//
// This runtime complements the deterministic engines (packages sim and
// asyncsim) used for the measured experiments: it demonstrates that AlgAU's
// stabilization survives genuine shared-memory asynchrony, the natural Go
// rendering of the paper's biological cellular network.
//
// Publication uses one atomic cell per node, so the execution is data-race
// free; only the *cross-node* snapshot is relaxed.
package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"thinunison/internal/graph"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
)

// Runtime runs one concurrent execution.
type Runtime struct {
	g   *graph.Graph
	alg sa.Algorithm

	cells       []atomic.Int64
	activations []atomic.Int64
	stop        chan struct{}
	stopOnce    sync.Once
	done        sync.WaitGroup
	started     atomic.Bool
	seed        int64
}

// New returns a runtime for alg on g with the given initial configuration
// (nil draws a random one from seed).
func New(g *graph.Graph, alg sa.Algorithm, initial sa.Config, seed int64) (*Runtime, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if initial == nil {
		initial = sa.Random(g.N(), alg.NumStates(), rand.New(randx.NewSource(seed)))
	}
	if len(initial) != g.N() {
		return nil, fmt.Errorf("runtime: %d initial states for %d nodes", len(initial), g.N())
	}
	r := &Runtime{
		g:           g,
		alg:         alg,
		cells:       make([]atomic.Int64, g.N()),
		activations: make([]atomic.Int64, g.N()),
		stop:        make(chan struct{}),
		seed:        seed,
	}
	for v, q := range initial {
		r.cells[v].Store(int64(q))
	}
	return r, nil
}

// Start launches one goroutine per node. It may be called once.
func (r *Runtime) Start() error {
	if r.started.Swap(true) {
		return fmt.Errorf("runtime: already started")
	}
	for v := 0; v < r.g.N(); v++ {
		v := v
		r.done.Add(1)
		go r.nodeLoop(v, rand.New(randx.NewSource(r.seed+int64(v)+1)))
	}
	return nil
}

// nodeLoop is the per-node goroutine: sense, transition, publish, yield.
func (r *Runtime) nodeLoop(v int, rng *rand.Rand) {
	defer r.done.Done()
	sig := sa.NewSignal(r.alg.NumStates())
	neighbors := r.g.Neighbors(v)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		sig.Reset()
		self := sa.State(r.cells[v].Load())
		sig.Set(self)
		for _, u := range neighbors {
			sig.Set(sa.State(r.cells[u].Load()))
		}
		next := r.alg.Transition(self, sig, rng)
		r.cells[v].Store(int64(next))
		r.activations[v].Add(1)

		// Yield with jitter so interleavings vary; occasionally sleep to
		// let starved goroutines run on oversubscribed machines.
		if rng.Intn(64) == 0 {
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
		}
	}
}

// Stop terminates all node goroutines and waits for them to exit.
func (r *Runtime) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.done.Wait()
}

// Shutdown terminates all node goroutines like Stop, but bounds the wait by
// ctx: it returns nil once every goroutine has exited, or the context's
// cause if the deadline expires first. Either way the stop signal stays
// down — a deadline miss means the remaining goroutines keep draining in the
// background, and a later Stop/Shutdown call waits for them again.
func (r *Runtime) Shutdown(ctx context.Context) error {
	r.stopOnce.Do(func() { close(r.stop) })
	exited := make(chan struct{})
	go func() {
		r.done.Wait()
		close(exited)
	}()
	select {
	case <-exited:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("runtime: shutdown: %w", context.Cause(ctx))
	}
}

// Snapshot returns a (relaxed) snapshot of the configuration.
func (r *Runtime) Snapshot() sa.Config {
	cfg := make(sa.Config, len(r.cells))
	for v := range r.cells {
		cfg[v] = sa.State(r.cells[v].Load())
	}
	return cfg
}

// Activations returns how many transitions each node has performed.
func (r *Runtime) Activations() []int64 {
	out := make([]int64, len(r.activations))
	for v := range r.activations {
		out[v] = r.activations[v].Load()
	}
	return out
}

// Inject corrupts node v to state q (a transient fault under concurrency).
func (r *Runtime) Inject(v int, q sa.State) error {
	if v < 0 || v >= len(r.cells) {
		return fmt.Errorf("runtime: node %d out of range", v)
	}
	if q < 0 || q >= r.alg.NumStates() {
		return fmt.Errorf("runtime: state %d out of range", q)
	}
	r.cells[v].Store(int64(q))
	return nil
}

// AwaitStable polls snapshots until pred holds continuously for the confirm
// window, or the timeout expires. Because snapshots are relaxed, pred should
// be a closed (forward-invariant) predicate such as "the graph is good".
func (r *Runtime) AwaitStable(pred func(sa.Config) bool, confirm, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var since time.Time
	for time.Now().Before(deadline) {
		if pred(r.Snapshot()) {
			if since.IsZero() {
				since = time.Now()
			} else if time.Since(since) >= confirm {
				return true
			}
		} else {
			since = time.Time{}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}
