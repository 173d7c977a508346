package multiwalk

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// TestRunNeverSharesAWorkingSet: concurrent jobs of one spec never hold
// one instance or one engine at the same time, though both are handed
// from finished walkers to later ones. In every round, all the walkers
// of all the jobs meet in their first Monitor poll, so all of them are
// live at once, and each records there the configuration buffer its
// engine searches: its address names the engine, and no two may be
// equal. The factory keeps the set of instances walkers hold, and
// fails on handing out one of them or taking back one nobody held.
// CI runs it under -race with one and two Ps.
func TestRunNeverSharesAWorkingSet(t *testing.T) {
	const jobs, walkers, rounds = 3, 2, 4
	tuned, inner, err := problems.Resolve("costas", 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	held := map[core.Problem]bool{}
	factory := Factory(func(done ...core.Problem) (core.Problem, error) {
		mu.Lock()
		defer mu.Unlock()
		if len(done) > 0 {
			for _, p := range done {
				if !held[p] {
					t.Error("a walker handed back an instance nobody held")
				}
				delete(held, p)
			}
			return inner(done...)
		}
		p, err := inner.New()
		if held[p] {
			t.Error("the factory handed out an instance a live walker holds")
		}
		held[p] = true
		return p, err
	})

	for round := 0; round < rounds; round++ {
		var arrived sync.WaitGroup
		arrived.Add(jobs * walkers)
		release := make(chan struct{})
		var cfgs []*int
		eo := tuned
		// The first poll comes at the first iteration, before any step, so
		// no walker can solve before it gets there.
		eo.CheckEvery = 1
		eo.Monitor = func(iter int64, _ int, cfg []int) core.Directive {
			if iter == 1 {
				mu.Lock()
				cfgs = append(cfgs, &cfg[0])
				mu.Unlock()
				arrived.Done()
				<-release
			}
			return core.Directive{Stop: true}
		}
		var ran sync.WaitGroup
		for job := 0; job < jobs; job++ {
			ran.Add(1)
			go func() {
				defer ran.Done()
				if _, err := Run(context.Background(), factory, Options{Walkers: walkers, Seed: uint64(100*round + job), Engine: eo}); err != nil {
					t.Error(err)
				}
			}()
		}
		met := make(chan struct{})
		go func() { arrived.Wait(); close(met) }()
		select {
		case <-met:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: the walkers never were all live at once", round)
		}
		mu.Lock()
		if len(held) != jobs*walkers {
			t.Errorf("round %d: %d walkers live, %d instances held", round, jobs*walkers, len(held))
		}
		seen := map[*int]bool{}
		for _, c := range cfgs {
			if seen[c] {
				t.Errorf("round %d: two live walkers search on one engine", round)
			}
			seen[c] = true
		}
		mu.Unlock()
		close(release)
		ran.Wait()
		if len(held) != 0 {
			t.Errorf("round %d: %d instances not handed back after every walker stopped", round, len(held))
		}
	}
}
