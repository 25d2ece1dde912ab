package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"casc/internal/geo"
	"casc/internal/server"
)

// TestClusterK1MatchesPlatform drives the unsharded server.Platform and a
// one-shard Cluster with the same seeded stream of registrations, posts,
// RunBatch calls and ratings, and requires every round to agree bitwise:
// score, Upper, expired count and the dispatched pairs.
func TestClusterK1MatchesPlatform(t *testing.T) {
	for _, solver := range []string{"GT", "TPG", "GT+LUB"} {
		dispatched := 0
		for seed := int64(1); seed <= 20; seed++ {
			dispatched += diffPlatformCluster(t, solver, seed, 6)
		}
		if dispatched == 0 {
			t.Fatalf("%s: no round dispatched anything; the test is vacuous", solver)
		}
	}
}

// diffPlatformCluster runs one seeded stream through both tiers and returns
// the number of tasks dispatched.
func diffPlatformCluster(t *testing.T, solver string, seed int64, rounds int) int {
	t.Helper()
	p, err := server.NewPlatform(server.Config{B: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, 1)
	rng := rand.New(rand.NewSource(seed))
	must := func(pid, cid int, perr, cerr error) {
		t.Helper()
		if perr != nil || cerr != nil || pid != cid {
			t.Fatalf("%s seed %d: platform (%d, %v) vs cluster (%d, %v)", solver, seed, pid, perr, cid, cerr)
		}
	}
	total := 0
	for round := 0; round < rounds; round++ {
		now := float64(round) // both clocks count RunBatch calls
		workers := rng.Intn(12)
		if round == 0 {
			workers = 40
		}
		for i := 0; i < workers; i++ {
			loc := geo.Pt(rng.Float64(), rng.Float64())
			speed, radius := 0.03+rng.Float64()*0.07, 0.1+rng.Float64()*0.15
			pid, perr := p.RegisterWorker(loc, speed, radius)
			cid, cerr := c.RegisterWorker(loc, speed, radius)
			must(pid, cid, perr, cerr)
		}
		for j, n := 0, 2+rng.Intn(8); j < n; j++ {
			loc := geo.Pt(rng.Float64(), rng.Float64())
			capacity, deadline := 3+rng.Intn(3), now+0.5+rng.Float64()*3
			pid, perr := p.PostTask(loc, capacity, deadline)
			cid, cerr := c.PostTask(loc, capacity, deadline)
			must(pid, cid, perr, cerr)
		}

		pr, perr := p.RunBatch(context.Background(), solver)
		cr, cerr := c.RunBatch(context.Background(), solver)
		if perr != nil || cerr != nil {
			t.Fatalf("%s seed %d round %d: platform %v, cluster %v", solver, seed, round, perr, cerr)
		}
		if math.Float64bits(pr.Score) != math.Float64bits(cr.Score) ||
			math.Float64bits(pr.Upper) != math.Float64bits(cr.Upper) ||
			pr.ExpiredTasks != cr.ExpiredTasks || pr.DispatchedTasks != cr.DispatchedTasks ||
			!reflect.DeepEqual(pr.Pairs, cr.Pairs) {
			t.Fatalf("%s seed %d round %d diverged:\nplatform %+v\ncluster  %+v", solver, seed, round, pr, cr)
		}
		total += pr.DispatchedTasks

		// Rate about two thirds of the dispatched tasks, in ascending task
		// order. Both tiers keep one history fed in this same order, so the
		// score values need no special form.
		rated := map[int]bool{}
		for _, pair := range pr.Pairs {
			if rated[pair.Task] {
				continue
			}
			rated[pair.Task] = true
			if rng.Intn(3) == 0 {
				continue
			}
			score := float64(rng.Intn(5)) / 4
			if err := p.RateTask(pair.Task, score); err != nil {
				t.Fatal(err)
			}
			if err := c.RateTask(pair.Task, score); err != nil {
				t.Fatal(err)
			}
		}
	}
	return total
}
