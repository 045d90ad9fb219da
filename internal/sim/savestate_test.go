package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// pinnedRun is one fixed run of TestSaveStateMatchesPinnedBytes: an engine
// recipe and the steps after which it is saved.
type pinnedRun struct {
	name  string
	opts  func() sim.Options
	saves []int
}

func pinnedRuns() []pinnedRun {
	return []pinnedRun{
		{name: "dense-random-subset", saves: []int{10, 25}, opts: func() sim.Options {
			return sim.Options{Scheduler: sched.NewRandomSubsetSeeded(0.3, 6, 4), Seed: 9}
		}},
		{name: "frontier-word-permuted", saves: []int{10, 25}, opts: func() sim.Options {
			return sim.Options{Scheduler: sched.NewPermutedSeeded(3), Seed: 9, Frontier: true, WordParallel: true}
		}},
		{name: "round-robin", saves: []int{10, 60}, opts: func() sim.Options {
			return sim.Options{Scheduler: sched.NewRoundRobin(), Seed: 9, Frontier: true}
		}},
	}
}

// pinnedSnapshots runs every pinnedRun and returns its snapshots by file
// name. Each run starts with a fault burst, so the fault buffer is saved
// non-empty, and every save carries a runmeta section.
func pinnedSnapshots(t *testing.T) map[string][]byte {
	t.Helper()
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.RandomConnected(48, 0.15, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, r := range pinnedRuns() {
		e, err := sim.New(base, au, r.opts())
		if err != nil {
			t.Fatal(err)
		}
		e.InjectFaults(6)
		for _, at := range r.saves {
			for e.StepCount() < at {
				if err := e.Step(); err != nil {
					t.Fatalf("%s: step %d: %v", r.name, e.StepCount(), err)
				}
			}
			var buf bytes.Buffer
			meta := snapshot.Section{Name: "runmeta", Data: []byte(`{"run":"` + r.name + `"}`)}
			if err := e.SaveState(&buf, meta); err != nil {
				t.Fatalf("%s: save at step %d: %v", r.name, e.StepCount(), err)
			}
			out[fmt.Sprintf("%s-step%d.snap", r.name, e.StepCount())] = buf.Bytes()
		}
		e.Close()
	}
	return out
}

// TestSaveStateMatchesPinnedBytes: SaveState writes, byte for byte, the
// snapshots committed under testdata/pinned for a few fixed runs, so a
// faster encoder cannot change the format behind snapshot.Version. The
// runs cover dense scalar under random-subset, frontier+word under
// permuted, and round-robin. Each engine saves twice, so the second save
// reuses the first save's topology bytes.
func TestSaveStateMatchesPinnedBytes(t *testing.T) {
	got := pinnedSnapshots(t)
	files, err := filepath.Glob(filepath.Join("testdata", "pinned", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(got) {
		t.Fatalf("%d pinned snapshots on disk, the runs save %d", len(files), len(got))
	}
	for _, path := range files {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		b, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: no run saves this snapshot", name)
		case !bytes.Equal(b, want):
			t.Errorf("%s: SaveState wrote %d bytes that differ from the pinned %d", name, len(b), len(want))
		}
	}
}

// decodedTopology reads a snapshot back and returns the CSR arrays of the
// engine restored from it.
func decodedTopology(t *testing.T, snap []byte, au *core.AU, s sched.Scheduler) (offsets, neighbors []int) {
	t.Helper()
	ck, _, err := sim.ReadCheckpoint(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	e, err := ck.Restore(au, sim.RestoreOptions{Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return e.Graph().CSR()
}

// TestSaveStateFollowsCommittedTopology: SaveState reuses its encoded
// topology only while the graph is unchanged. Two saves with no step
// between them write the same bytes; after ApplyDelta commits a change
// through an explicit graph.Delta, as internal/bio commits its rewiring,
// the next snapshot decodes to the live CSR.
func TestSaveStateFollowsCommittedTopology(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.RandomConnected(48, 0.15, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 8, 5) }
	save := func(t *testing.T, e *sim.Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	checkLive := func(t *testing.T, e *sim.Engine, how string) {
		t.Helper()
		before := save(t, e)
		if again := save(t, e); !bytes.Equal(before, again) {
			t.Fatalf("%s: two saves with no step between them differ", how)
		}
		offsets, neighbors := decodedTopology(t, before, au, mk())
		liveOff, liveNbr := e.Graph().CSR()
		if !slices.Equal(offsets, liveOff) || !slices.Equal(neighbors, liveNbr) {
			t.Fatalf("%s: the snapshot's topology is not the live CSR (%d edges saved, %d live)",
				how, len(neighbors)/2, e.Graph().M())
		}
	}

	t.Run("delta", func(t *testing.T) {
		g := cloneGraph(t, base)
		e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		checkLive(t, e, "before the delta")
		// Rewire one edge away and one chord in, the way bio.Network.Churn
		// does, keeping the graph connected.
		d := graph.NewDelta(g)
		edges := g.Edges()
		for _, uv := range edges {
			if err := d.DeleteEdge(uv[0], uv[1]); err != nil {
				t.Fatal(err)
			}
			if d.Connected() {
				break
			}
			if err := d.InsertEdge(uv[0], uv[1]); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < g.N() && d.Pending() < 2; u++ {
			if v := (u + g.N()/2) % g.N(); !d.HasEdge(u, v) {
				if err := d.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if changes, err := e.ApplyDelta(d); err != nil || len(changes) != 2 {
			t.Fatalf("ApplyDelta committed %v, err %v; want one deletion and one insertion", changes, err)
		}
		checkLive(t, e, "after the delta")
	})
}

// TestSaveStateReusesTopologyBytes: a second save of an unchanged
// 10^4-node engine appends the first save's topology bytes instead of
// encoding the CSR again. The check corrupts the live neighbor array in
// place between the saves, which no ApplyDelta reports: a save that
// re-encoded the CSR would write the corruption.
func TestSaveStateReusesTopologyBytes(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BoundedDiameter(10_000, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{Scheduler: sched.NewRandomSubsetSeeded(0.4, 16, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	neighborsField := func() []byte {
		t.Helper()
		section, err := engineSection(e)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := splitEngine(section)
		if err != nil {
			t.Fatal(err)
		}
		return leaf(t, fs, "neighbors").raw
	}
	first := neighborsField()
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	_, neighbors := g.CSR()
	neighbors[0], neighbors[1] = neighbors[1], neighbors[0]
	second := neighborsField()
	neighbors[0], neighbors[1] = neighbors[1], neighbors[0]
	if !bytes.Equal(first, second) {
		t.Fatal("the second save encoded the CSR again instead of reusing the first save's bytes")
	}
}
