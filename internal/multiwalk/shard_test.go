package multiwalk

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// shardRanges splits total walkers into the given shard sizes.
func shardRanges(sizes []int) []Shard {
	shards := make([]Shard, len(sizes))
	total := 0
	for _, s := range sizes {
		total += s
	}
	start := 0
	for i, s := range sizes {
		shards[i] = Shard{Start: start, Total: total}
		start += s
	}
	return shards
}

// TestShardedRunVirtualMatchesWhole is the package-level half of the
// distributed determinism contract: running a job's walkers as shards
// (in any partition) and merging with CombineShards must be bit-for-bit
// identical to the unsharded RunVirtual — same winner, same iteration
// counts, same per-walker identity and stats.
func TestShardedRunVirtualMatchesWhole(t *testing.T) {
	const k = 7
	base := Options{Walkers: k, Seed: 123, Engine: tunedEngine(t, "costas", 9)}
	whole, err := RunVirtual(context.Background(), costasFactory(t, 9), base)
	if err != nil {
		t.Fatal(err)
	}

	for _, sizes := range [][]int{{3, 4}, {1, 1, 5}, {2, 2, 2, 1}, {7}} {
		shards := shardRanges(sizes)
		results := make([]Result, len(shards))
		for i, sh := range shards {
			opts := base
			opts.Walkers = sizes[i]
			shard := sh
			opts.Shard = &shard
			res, err := RunVirtual(context.Background(), costasFactory(t, 9), opts)
			if err != nil {
				t.Fatalf("shard %v: %v", sh, err)
			}
			results[i] = res
		}
		merged, err := CombineShards(k, results...)
		if err != nil {
			t.Fatalf("combine %v: %v", sizes, err)
		}
		if merged.Winner != whole.Winner || merged.WinnerIterations != whole.WinnerIterations ||
			merged.Solved != whole.Solved || merged.TotalIterations != whole.TotalIterations ||
			merged.Completed != whole.Completed || merged.Truncated != whole.Truncated {
			t.Fatalf("partition %v: merged %+v != whole %+v", sizes, merged, whole)
		}
		if !reflect.DeepEqual(merged.Solution, whole.Solution) {
			t.Fatalf("partition %v: solution diverged", sizes)
		}
		for w := range whole.Walkers {
			a, b := whole.Walkers[w], merged.Walkers[w]
			a.Result.Elapsed, b.Result.Elapsed = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("partition %v: walker %d diverged:\nwhole:  %+v\nmerged: %+v", sizes, w, a, b)
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	engine := tunedEngine(t, "costas", 8)
	cases := []struct {
		name string
		opts Options
	}{
		{"start negative", Options{Walkers: 2, Engine: engine, Shard: &Shard{Start: -1, Total: 4}}},
		{"beyond total", Options{Walkers: 3, Engine: engine, Shard: &Shard{Start: 2, Total: 4}}},
		{"overflowing walkers", Options{Walkers: math.MaxInt, Engine: engine, Shard: &Shard{Start: 2, Total: 4}}},
		{"zero total", Options{Walkers: 1, Engine: engine, Shard: &Shard{Start: 0, Total: 0}}},
		{"exchange sharded", Options{Walkers: 1, Engine: engine,
			Shard:    &Shard{Start: 0, Total: 2},
			Exchange: ExchangeOptions{Enabled: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), costasFactory(t, 8), tc.opts); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}

func TestCombineShardsRejectsGapsAndOverlaps(t *testing.T) {
	stat := func(w int) WalkerStat {
		return WalkerStat{Walker: w, Result: core.Result{Iterations: 1, Cost: 3}}
	}
	if _, err := CombineShards(3, Result{Walkers: []WalkerStat{stat(0), stat(1)}}); err == nil {
		t.Fatal("missing walker not rejected")
	}
	if _, err := CombineShards(2,
		Result{Walkers: []WalkerStat{stat(0), stat(1)}},
		Result{Walkers: []WalkerStat{stat(1)}}); err == nil {
		t.Fatal("duplicate walker not rejected")
	}
	if _, err := CombineShards(1, Result{Walkers: []WalkerStat{stat(4)}}); err == nil {
		t.Fatal("out-of-range walker not rejected")
	}
}

func TestCombineShardsWinnerAndTruncation(t *testing.T) {
	solved := func(w int, iters int64) WalkerStat {
		return WalkerStat{Walker: w, Result: core.Result{Solved: true, Iterations: iters, Solution: []int{0}}}
	}
	lost := func(w int) WalkerStat {
		return WalkerStat{Walker: w, Result: core.Result{Interrupted: true, Cost: math.MaxInt}}
	}
	res, err := CombineShards(4,
		Result{Walkers: []WalkerStat{solved(0, 90), solved(1, 40)}, Completed: 2},
		Result{Walkers: []WalkerStat{solved(2, 40), lost(3)}, Completed: 1, Truncated: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Winner != 1 || res.WinnerIterations != 40 {
		t.Fatalf("tie must break toward the lowest global index: %+v", res)
	}
	if !res.Truncated || res.Completed != 3 {
		t.Fatalf("truncation/completion not propagated: %+v", res)
	}
	if res.TotalIterations != 170 {
		t.Fatalf("TotalIterations = %d, want 170", res.TotalIterations)
	}
}
