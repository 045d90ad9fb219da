// Package failpoint is a deterministic, seeded fault-injection framework.
//
// A Schedule maps named failure sites to explicit lists of hit numbers at
// which the site fires: "the 3rd and 7th time site X is evaluated, return an
// injected error". Because the firing points are concrete hit numbers — not
// probabilities sampled at run time — a chaos run is reproducible from its
// seed alone and shrinkable by deleting hits from the schedule.
//
// The package is a std-lib-only leaf (like internal/obs) so any layer may
// evaluate a site. Sites are compiled in permanently; with no schedule armed
// an evaluation is a single atomic pointer load and zero allocations, cheap
// enough for per-step hot paths.
//
// Usage:
//
//	failpoint.Arm(failpoint.Chaos(seed, sites))
//	defer failpoint.Disarm()
//	...
//	if f := failpoint.Eval(failpoint.SimStep); f.Kind == failpoint.FailError {
//		return f.Err()
//	}
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error so callers can
// classify a failure as chaos-induced (and therefore transient/retryable).
var ErrInjected = errors.New("failpoint: injected fault")

// Site names a failure point compiled into the codebase. The catalogue below
// is the full set of sites; Eval on an unknown site is harmless (never fires).
type Site string

const (
	// CampaignWorker fires in campaign.ExecuteIsolated before a scenario
	// runs: FailPanic kills the scenario mid-flight to exercise quarantine.
	CampaignWorker Site = "campaign/worker"
	// CampaignPoll fires in the campaign stabilization poll: FailStall
	// blocks the poll (interruptibly) to exercise the watchdog.
	CampaignPoll Site = "campaign/poll"
	// CampaignAppend fires in ResumableLog.Append: FailTorn persists only a
	// prefix of the record line, exercising torn-write self-repair.
	CampaignAppend Site = "campaign/append-record"
	// CampaignFsync fires after a ResumableLog record write: FailError makes
	// the durability fsync fail.
	CampaignFsync Site = "campaign/append-fsync"
	// SimStep fires at the top of sim.Engine.Step: FailError aborts the
	// step, FailPanic kills it.
	SimStep Site = "sim/step"
	// SnapshotWrite fires in snapshot.AtomicWriteFile: FailTorn persists
	// only a prefix of the container payload before failing.
	SnapshotWrite Site = "snapshot/write"
	// SnapshotFsync fires in snapshot.AtomicWriteFile before the rename:
	// FailError makes the temp-file fsync fail.
	SnapshotFsync Site = "snapshot/fsync"
)

// Kind is what happens when a site fires.
type Kind uint8

const (
	None      Kind = iota // site did not fire
	FailError             // return an error wrapping ErrInjected
	FailPanic             // panic with the Fire value
	FailTorn              // persist only a prefix of the payload, then error
	FailStall             // block for up to the stall duration
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case FailError:
		return "error"
	case FailPanic:
		return "panic"
	case FailTorn:
		return "torn"
	case FailStall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fire is the outcome of evaluating a site. Kind == None means the site did
// not fire and the rest of the struct is zero.
type Fire struct {
	Site  Site
	Kind  Kind
	Hit   uint64        // 1-based evaluation number at which the site fired
	Frac  float64       // FailTorn: fraction of the payload to persist
	Stall time.Duration // FailStall: maximum stall duration
}

// Err returns the injected error for this firing, wrapping ErrInjected.
func (f Fire) Err() error {
	return fmt.Errorf("%w: %s (hit %d)", ErrInjected, f.Site, f.Hit)
}

// String is the panic payload representation for FailPanic firings.
func (f Fire) String() string {
	return fmt.Sprintf("failpoint %s %s (hit %d)", f.Site, f.Kind, f.Hit)
}

// CutAt returns the torn prefix length for an n-byte payload: at least zero,
// always strictly less than n so the write is genuinely torn.
func (f Fire) CutAt(n int) int {
	if n <= 0 {
		return 0
	}
	cut := int(f.Frac * float64(n))
	if cut < 0 {
		cut = 0
	}
	if cut >= n {
		cut = n - 1
	}
	return cut
}

// Wait blocks for the stall duration or until ctx is cancelled, whichever
// comes first. Stalls are interruptible so a watchdog can cut them short.
func (f Fire) Wait(ctx context.Context) {
	if f.Stall <= 0 {
		return
	}
	t := time.NewTimer(f.Stall)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Rule arms one site: the site fires with Kind at exactly the listed 1-based
// hit numbers. Frac and Stall parameterize FailTorn and FailStall firings.
type Rule struct {
	Site  Site
	Kind  Kind
	Hits  []uint64
	Frac  float64
	Stall time.Duration
}

type armedSite struct {
	rule  Rule
	hits  map[uint64]bool
	count atomic.Uint64 // evaluations of this site since Arm
	fired atomic.Uint64 // firings of this site since Arm
}

// Schedule is an armed set of rules plus per-site hit/fire counters. A
// Schedule is immutable after New; counters are updated atomically so Eval is
// safe from any goroutine.
type Schedule struct {
	seed  int64
	sites map[Site]*armedSite
}

// New builds a schedule from explicit rules. The seed is informational (it is
// echoed by String for reproduction instructions); Chaos derives rules from
// it, but hand-built schedules may pass anything.
func New(seed int64, rules []Rule) *Schedule {
	s := &Schedule{seed: seed, sites: make(map[Site]*armedSite, len(rules))}
	for _, r := range rules {
		a := &armedSite{rule: r, hits: make(map[uint64]bool, len(r.Hits))}
		for _, h := range r.Hits {
			a.hits[h] = true
		}
		s.sites[r.Site] = a
	}
	return s
}

// Seed returns the seed the schedule was built with.
func (s *Schedule) Seed() int64 { return s.seed }

// Eval counts one evaluation of site and returns the firing outcome, if any.
func (s *Schedule) Eval(site Site) Fire {
	a := s.sites[site]
	if a == nil {
		return Fire{}
	}
	hit := a.count.Add(1)
	if !a.hits[hit] {
		return Fire{}
	}
	a.fired.Add(1)
	return Fire{Site: site, Kind: a.rule.Kind, Hit: hit, Frac: a.rule.Frac, Stall: a.rule.Stall}
}

// Evals returns the number of times site has been evaluated since Arm, or 0
// when the schedule does not arm it. An armed site with zero evaluations was
// never reached, so its planned firings could not happen.
func (s *Schedule) Evals(site Site) uint64 {
	if a := s.sites[site]; a != nil {
		return a.count.Load()
	}
	return 0
}

// Fired returns the total number of firings across all sites since Arm.
func (s *Schedule) Fired() uint64 {
	var n uint64
	for _, a := range s.sites {
		n += a.fired.Load()
	}
	return n
}

// String renders the schedule — seed, then each armed site with its kind,
// concrete hit list, and evaluation/firing counts — in deterministic site
// order, so a failing chaos run can be reproduced and shrunk by hand.
func (s *Schedule) String() string {
	names := make([]string, 0, len(s.sites))
	for site := range s.sites {
		names = append(names, string(site))
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "failpoint schedule seed=%d", s.seed)
	for _, name := range names {
		a := s.sites[Site(name)]
		hits := make([]uint64, 0, len(a.hits))
		for h := range a.hits {
			hits = append(hits, h)
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
		fmt.Fprintf(&b, "\n  %s: %s@%v evals=%d fired=%d",
			name, a.rule.Kind, hits, a.count.Load(), a.fired.Load())
	}
	return b.String()
}

// ChaosSite describes one site of a seeded chaos schedule: Count firings
// placed pseudo-randomly (by the schedule seed) within the site's first
// Window evaluations.
type ChaosSite struct {
	Site   Site
	Kind   Kind
	Count  int
	Window int
	Frac   float64       // FailTorn; 0 means derive from the seed
	Stall  time.Duration // FailStall
}

// Chaos derives a concrete schedule from a seed: for each site, Count
// distinct hit numbers in [1, Window] drawn from a splitmix64 stream keyed by
// seed and site name. The same (seed, sites) always yields the same schedule.
func Chaos(seed int64, sites []ChaosSite) *Schedule {
	rules := make([]Rule, 0, len(sites))
	for _, cs := range sites {
		state := uint64(seed)
		for _, c := range cs.Site {
			state = mix64(state ^ uint64(c))
		}
		window := uint64(cs.Window)
		if window == 0 {
			window = 1
		}
		picked := make(map[uint64]bool, cs.Count)
		hits := make([]uint64, 0, cs.Count)
		for len(hits) < cs.Count {
			state = mix64(state)
			h := state%window + 1
			if !picked[h] {
				picked[h] = true
				hits = append(hits, h)
			}
		}
		frac := cs.Frac
		if cs.Kind == FailTorn && frac == 0 {
			state = mix64(state)
			frac = 0.1 + 0.8*float64(state>>11)/float64(1<<53)
		}
		rules = append(rules, Rule{Site: cs.Site, Kind: cs.Kind, Hits: hits, Frac: frac, Stall: cs.Stall})
	}
	return New(seed, rules)
}

// mix64 is the splitmix64 finalizer, the same mixer the campaign package
// uses for seed derivation.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// active is the globally armed schedule; nil when disarmed. All sites consult
// it through Armed/Eval.
var active atomic.Pointer[Schedule]

// Arm installs s as the global schedule. Passing nil disarms.
func Arm(s *Schedule) { active.Store(s) }

// Disarm removes the global schedule; every site reverts to never firing.
func Disarm() { active.Store(nil) }

// Armed reports whether a schedule is installed. It is a single atomic load,
// so hot paths can gate their site evaluations on it.
func Armed() bool { return active.Load() != nil }

// Eval evaluates site against the global schedule. With no schedule armed it
// returns the zero Fire at the cost of one atomic load and zero allocations.
func Eval(site Site) Fire {
	s := active.Load()
	if s == nil {
		return Fire{}
	}
	return s.Eval(site)
}
