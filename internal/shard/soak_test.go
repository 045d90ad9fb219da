package shard_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
)

// TestSoakConcurrentShardedCampaigns drives several campaigns concurrently,
// each of whose scenarios draws per-node coin streams (forced P=4), so
// campaign workers and the repeat loop stack. Under -race (the CI
// configuration for this package) it vets that concurrent runs share no
// engine state; in any mode it asserts the record streams of all repeats
// are byte-identical.
func TestSoakConcurrentShardedCampaigns(t *testing.T) {
	repeats, campaigns := 3, 4
	if testing.Short() {
		repeats, campaigns = 2, 2
	}
	scs := campaign.Concat(55, campaign.Matrix{
		Families:   []graph.Family{graph.FamilyCycle, graph.FamilyBoundedD},
		Sizes:      []int{64},
		Algorithms: []campaign.Algorithm{campaign.AlgAU, campaign.AlgMIS, campaign.AlgLE},
		Schedulers: []campaign.SchedulerSpec{campaign.Synchronous, campaign.RoundRobin},
		Faults:     []campaign.FaultSpec{{Count: 5, Bursts: 1}},
	})
	for i := range scs {
		scs[i].Parallelism = 4
	}

	run := func() []byte {
		var buf bytes.Buffer
		var mu sync.Mutex
		r := &campaign.Runner{Workers: 3, OnRecord: func(rec campaign.Record) {
			mu.Lock()
			defer mu.Unlock()
			if err := campaign.AppendJSONL(&buf, rec); err != nil {
				t.Error(err)
			}
		}}
		if _, err := r.Run(context.Background(), scs); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	outs := make([][]byte, repeats*campaigns)
	var wg sync.WaitGroup
	for rep := 0; rep < repeats; rep++ {
		for c := 0; c < campaigns; c++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				outs[slot] = run()
			}(rep*campaigns + c)
		}
		wg.Wait()
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("concurrent campaign %d produced a different record stream", i)
		}
	}
}
