package ksetpack

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casc/internal/assign"
)

func smallInstance() *Instance {
	return &Instance{
		U: 6,
		K: 3,
		Sets: [][]int{
			{0, 1, 2},
			{2, 3},
			{3, 4, 5},
			{0, 5},
		},
		Weights: []float64{3, 2, 3, 1},
	}
}

func TestValidate(t *testing.T) {
	if err := smallInstance().Validate(); err != nil {
		t.Fatalf("good instance rejected: %v", err)
	}
	cases := map[string]*Instance{
		"oversized set":  {U: 3, K: 2, Sets: [][]int{{0, 1, 2}}, Weights: []float64{1}},
		"out of range":   {U: 2, K: 2, Sets: [][]int{{0, 5}}, Weights: []float64{1}},
		"duplicate elem": {U: 3, K: 3, Sets: [][]int{{1, 1}}, Weights: []float64{1}},
		"neg weight":     {U: 2, K: 2, Sets: [][]int{{0, 1}}, Weights: []float64{-1}},
		"len mismatch":   {U: 2, K: 2, Sets: [][]int{{0, 1}}, Weights: nil},
		"empty set":      {U: 2, K: 2, Sets: [][]int{{}}, Weights: []float64{1}},
	}
	for name, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSolveExactSmall(t *testing.T) {
	in := smallInstance()
	sol := in.SolveExact()
	if !in.Feasible(sol) {
		t.Fatalf("exact solution infeasible: %v", sol)
	}
	// Best packing: {0,1,2} (w=3) + {3,4,5} (w=3) = 6.
	if w := in.Weight(sol); math.Abs(w-6) > 1e-12 {
		t.Errorf("exact weight = %v, want 6 (solution %v)", w, sol)
	}
}

func TestSolveGreedyFeasibleAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		in := randomKSP(r, 10, 3, 8)
		g := in.SolveGreedy()
		if !in.Feasible(g) {
			t.Fatalf("greedy infeasible on trial %d", trial)
		}
		e := in.SolveExact()
		if !in.Feasible(e) {
			t.Fatalf("exact infeasible on trial %d", trial)
		}
		gw, ew := in.Weight(g), in.Weight(e)
		if gw > ew+1e-9 {
			t.Fatalf("greedy %v beats exact %v", gw, ew)
		}
		// Greedy is a 1/k approximation.
		if ew > 0 && gw < ew/float64(in.K)-1e-9 {
			t.Fatalf("greedy %v below 1/k of exact %v", gw, ew)
		}
	}
}

// randomKSP builds a random linear set system (each element pair in at most
// one set) so it is also reducible.
func randomKSP(r *rand.Rand, u, k, sets int) *Instance {
	in := &Instance{U: u, K: k}
	type pair struct{ a, b int }
	used := map[pair]bool{}
	for len(in.Sets) < sets {
		size := 2 + r.Intn(k-1)
		perm := r.Perm(u)[:size]
		ok := true
		for a := 0; a < size && ok; a++ {
			for b := a + 1; b < size && ok; b++ {
				p := pair{min(perm[a], perm[b]), max(perm[a], perm[b])}
				if used[p] {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		for a := 0; a < size; a++ {
			for b := a + 1; b < size; b++ {
				used[pair{min(perm[a], perm[b]), max(perm[a], perm[b])}] = true
			}
		}
		in.Sets = append(in.Sets, perm)
		in.Weights = append(in.Weights, r.Float64()*3)
	}
	return in
}

func TestReductionValuePreservation(t *testing.T) {
	// Every feasible packing must map to a CA-SC assignment whose score (in
	// weight units) equals the packing weight — this is the inequality
	// OPT_CASC ≥ OPT_kSP that Theorem II.1 relies on.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		ksp := randomKSP(r, 9, 3, 6)
		// The reduction requires uniform treatment of B; use only instances
		// where min set size ≥ 2 (randomKSP guarantees it).
		red, err := Build(ksp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, sol := range []Solution{ksp.SolveGreedy(), ksp.SolveExact()} {
			a := red.FromPacking(sol)
			if err := a.Validate(red.CASC); err != nil {
				t.Fatalf("trial %d: induced assignment invalid: %v", trial, err)
			}
			got := red.ScoreToWeight(a.TotalScore(red.CASC))
			want := ksp.Weight(sol)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: induced score %v, packing weight %v", trial, got, want)
			}
		}
	}
}

func TestReductionOptimumDominatesKSP(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		ksp := randomKSP(r, 7, 3, 4)
		red, err := Build(ksp)
		if err != nil {
			t.Fatal(err)
		}
		ex := assign.NewExact()
		opt, err := ex.Solve(ctx, red.CASC)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Optimal {
			t.Fatalf("trial %d: EXACT did not prove optimality", trial)
		}
		cascOpt := red.ScoreToWeight(opt.TotalScore(red.CASC))
		kspOpt := ksp.Weight(ksp.SolveExact())
		if cascOpt < kspOpt-1e-9 {
			t.Errorf("trial %d: OPT_CASC %v < OPT_kSP %v", trial, cascOpt, kspOpt)
		}
	}
}

func TestReductionChunkCreditGap(t *testing.T) {
	// Documents why the converse direction of the paper's Theorem II.1
	// sketch is loose: CA-SC rewards partial subsets. With
	// C1={0,1,2} w=1, C2={2,3,4} w=1 and a third disjoint set C3={5,6,7},
	// k-SP can pick C1+C3 (weight 2; C2 conflicts with C1 on element 2).
	// CA-SC additionally earns chunk credit by grouping {3,4,8} (element 8
	// belongs to no set, so worker 8 is a free filler): the pair (3,4) ∈ C2
	// contributes even though C2 is not fully served.
	ksp := &Instance{
		U: 9, K: 3,
		Sets:    [][]int{{0, 1, 2}, {2, 3, 4}, {5, 6, 7}},
		Weights: []float64{1, 1, 1},
	}
	red, err := Build(ksp)
	if err != nil {
		t.Fatal(err)
	}
	kspOpt := ksp.Weight(ksp.SolveExact())
	if math.Abs(kspOpt-2) > 1e-12 {
		t.Fatalf("k-SP optimum = %v, want 2", kspOpt)
	}
	ex := assign.NewExact()
	opt, err := ex.Solve(context.Background(), red.CASC)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Optimal {
		t.Fatal("EXACT did not prove optimality")
	}
	cascOpt := red.ScoreToWeight(opt.TotalScore(red.CASC))
	if cascOpt <= kspOpt+1e-9 {
		t.Errorf("expected chunk credit: OPT_CASC %v should exceed OPT_kSP %v", cascOpt, kspOpt)
	}
}

func TestBuildRejectsOverconstrainedPairs(t *testing.T) {
	// Element pair (0,1) in two sets with different weights cannot receive a
	// single quality value.
	ksp := &Instance{
		U: 3, K: 2,
		Sets:    [][]int{{0, 1}, {0, 1}},
		Weights: []float64{1, 2},
	}
	if _, err := Build(ksp); err == nil {
		t.Error("overconstrained pair accepted")
	}
}

func TestBuildRejectsSingletons(t *testing.T) {
	ksp := &Instance{U: 2, K: 2, Sets: [][]int{{0}}, Weights: []float64{1}}
	if _, err := Build(ksp); err == nil {
		t.Error("singleton set accepted")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(&Instance{U: 0, K: 2}); err == nil {
		t.Error("empty instance accepted")
	}
}

func TestReductionScalesLargeWeights(t *testing.T) {
	ksp := &Instance{
		U: 4, K: 2,
		Sets:    [][]int{{0, 1}, {2, 3}},
		Weights: []float64{10, 4},
	}
	red, err := Build(ksp)
	if err != nil {
		t.Fatal(err)
	}
	a := red.FromPacking(Solution{0, 1})
	got := red.ScoreToWeight(a.TotalScore(red.CASC))
	if math.Abs(got-14) > 1e-9 {
		t.Errorf("scaled score = %v, want 14", got)
	}
}
