package failpoint

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedEvalNeverFires(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if f := Eval(SimStep); f.Kind != None {
			t.Fatalf("disarmed Eval fired: %+v", f)
		}
	}
	if Armed() {
		t.Fatal("Armed() true with no schedule")
	}
}

func TestScheduleFiresAtExactHits(t *testing.T) {
	s := New(1, []Rule{{Site: SimStep, Kind: FailError, Hits: []uint64{2, 5}}})
	Arm(s)
	defer Disarm()
	var fired []int
	for i := 1; i <= 8; i++ {
		if f := Eval(SimStep); f.Kind != None {
			fired = append(fired, i)
			if f.Hit != uint64(i) {
				t.Fatalf("hit %d reported as %d", i, f.Hit)
			}
			if err := f.Err(); !errors.Is(err, ErrInjected) {
				t.Fatalf("Err() = %v, not ErrInjected", err)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [2 5]", fired)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", s.Fired())
	}
	// Sites not in the schedule never fire.
	if f := Eval(SnapshotWrite); f.Kind != None {
		t.Fatalf("unarmed site fired: %+v", f)
	}
}

// TestScheduleEvals pins the per-site evaluation count: it counts every
// evaluation of an armed site, fired or not, and reads 0 for an armed site
// that was never reached and for a site the schedule does not arm.
func TestScheduleEvals(t *testing.T) {
	s := New(1, []Rule{
		{Site: SimStep, Kind: FailError, Hits: []uint64{2}},
		{Site: CampaignPoll, Kind: FailStall, Hits: []uint64{1}},
	})
	Arm(s)
	defer Disarm()
	for i := 0; i < 3; i++ {
		Eval(SimStep)
	}
	Eval(SnapshotWrite)
	if got := s.Evals(SimStep); got != 3 {
		t.Fatalf("Evals(SimStep) = %d, want 3", got)
	}
	if got := s.Evals(CampaignPoll); got != 0 {
		t.Fatalf("Evals(CampaignPoll) = %d for a site never reached, want 0", got)
	}
	if got := s.Evals(SnapshotWrite); got != 0 {
		t.Fatalf("Evals(SnapshotWrite) = %d for an unarmed site, want 0", got)
	}
}

func TestChaosDeterministic(t *testing.T) {
	sites := []ChaosSite{
		{Site: CampaignWorker, Kind: FailPanic, Count: 3, Window: 10},
		{Site: CampaignAppend, Kind: FailTorn, Count: 2, Window: 20},
		{Site: CampaignPoll, Kind: FailStall, Count: 2, Window: 50, Stall: time.Second},
	}
	a, b := Chaos(42, sites), Chaos(42, sites)
	if a.String() != b.String() {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Chaos(43, sites)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical schedule:\n%s", a)
	}
	// Torn rules get a derived nonzero fraction in (0, 1).
	torn := a.sites[CampaignAppend].rule
	if torn.Frac <= 0 || torn.Frac >= 1 {
		t.Fatalf("derived torn fraction %v out of (0,1)", torn.Frac)
	}
	for site, as := range a.sites {
		if len(as.hits) == 0 {
			t.Fatalf("site %s has no hits", site)
		}
		for h := range as.hits {
			window := 0
			for _, cs := range sites {
				if cs.Site == site {
					window = cs.Window
				}
			}
			if h < 1 || h > uint64(window) {
				t.Fatalf("site %s hit %d outside [1,%d]", site, h, window)
			}
		}
	}
}

func TestCutAt(t *testing.T) {
	f := Fire{Frac: 0.5}
	if got := f.CutAt(10); got != 5 {
		t.Fatalf("CutAt(10) = %d, want 5", got)
	}
	// Always strictly torn: never the full payload, never negative.
	for _, frac := range []float64{0, 0.999, 1, 2} {
		f := Fire{Frac: frac}
		for _, n := range []int{0, 1, 7} {
			got := f.CutAt(n)
			if got < 0 || (n > 0 && got >= n) {
				t.Fatalf("CutAt(%d) with frac %v = %d", n, frac, got)
			}
		}
	}
}

func TestWaitInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Fire{Kind: FailStall, Stall: 10 * time.Second}.Wait(ctx)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled Wait blocked %v", d)
	}
}

func TestConcurrentEval(t *testing.T) {
	s := New(7, []Rule{{Site: SimStep, Kind: FailError, Hits: []uint64{10, 100, 1000}}})
	Arm(s)
	defer Disarm()
	var wg sync.WaitGroup
	var fired sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if f := Eval(SimStep); f.Kind != None {
					fired.Store(f.Hit, true)
				}
			}
		}()
	}
	wg.Wait()
	// 1600 evaluations: hits 10, 100 and 1000 each fired exactly once.
	n := 0
	fired.Range(func(k, v any) bool { n++; return true })
	if n != 3 || s.Fired() != 3 {
		t.Fatalf("fired %d distinct hits, Fired()=%d, want 3", n, s.Fired())
	}
}

func TestStringMentionsSeedAndHits(t *testing.T) {
	s := New(99, []Rule{{Site: SimStep, Kind: FailError, Hits: []uint64{3, 1}}})
	got := s.String()
	for _, want := range []string{"seed=99", "sim/step", "error@[1 3]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}

// TestEvalAllocs pins the hot-path contract: a site evaluation allocates
// nothing whether disarmed (one atomic load) or armed (map lookups only).
func TestEvalAllocs(t *testing.T) {
	Disarm()
	if n := testing.AllocsPerRun(100, func() { Eval(SimStep) }); n != 0 {
		t.Fatalf("disarmed Eval allocates %v/op", n)
	}
	Arm(New(1, []Rule{{Site: SimStep, Kind: FailError, Hits: []uint64{1 << 40}}}))
	defer Disarm()
	if n := testing.AllocsPerRun(100, func() { Eval(SimStep) }); n != 0 {
		t.Fatalf("armed Eval allocates %v/op", n)
	}
}
