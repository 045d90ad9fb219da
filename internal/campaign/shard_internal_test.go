package campaign

import "testing"

// TestIntraParallelismPolicy pins the coin-source resolution of
// Scenario.Parallelism: positive values are interchangeable and give
// per-(step, node) streams, a negative value forces the shared stream, and
// zero picks by size — the shared stream just below ShardThreshold,
// per-node streams at it.
func TestIntraParallelismPolicy(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want int
	}{
		{"forced one", Scenario{N: 10, Parallelism: 1}, 1},
		{"forced five", Scenario{N: 10, Parallelism: 5}, 1},
		{"forced shared", Scenario{N: ShardThreshold, Parallelism: -1}, 0},
		{"auto below threshold", Scenario{N: ShardThreshold - 1}, 0},
		{"auto at threshold", Scenario{N: ShardThreshold}, 1},
	}
	for _, c := range cases {
		if got := c.sc.coinSource(); got != c.want {
			t.Errorf("%s: coinSource() = %d, want %d", c.name, got, c.want)
		}
	}
}
