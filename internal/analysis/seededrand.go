package analysis

import (
	"go/ast"
)

// newSeededRand builds the seededrand rule: solver and partition code must
// not consult ambient nondeterminism. Randomness flows through an injected
// seeded *rand.Rand (constructed via rand.New(rand.NewSource(seed))), time
// through an injectable clock value — never the process-global math/rand
// source or direct time.Now/time.Since calls, both of which break the
// seed-reproducibility contract the equivalence tests and the paper's
// reported scores rely on.
func newSeededRand() *Rule {
	return &Rule{
		Name: "seededrand",
		Doc: "global math/rand or wall-clock call in solver/partition code; " +
			"randomness must come from an injected seeded *rand.Rand and " +
			"time from an injectable clock",
		Scope: []string{
			"internal/assign", "internal/partition",
			"internal/model", "internal/coop",
			// The platform replays rounds bitwise across shard counts;
			// ambient clocks or global randomness in its round loop or its
			// sharding primitives would desync the N-shard-vs-1-shard
			// equivalence the load test asserts.
			"internal/server", "internal/shard",
			// The incremental engine promises rounds bitwise identical to a
			// from-scratch solve; ambient nondeterminism anywhere in its
			// carry/re-solve path would break that equivalence silently.
			"internal/incremental",
			// The scenario engine's whole contract is that the event
			// schedule is a pure function of (spec, seed) — DESIGN.md §14;
			// one ambient draw or clock read and record/replay diverges.
			"internal/scenario",
		},
		Check: checkSeededRand,
	}
}

// seededRandAllowed lists the math/rand top-level functions that do not
// touch the global source: the constructors used to build injected
// generators.
var seededRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func checkSeededRand(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || namedRecv(fn) != "" {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !seededRandAllowed[fn.Name()] {
					rep.Report(call, "math/rand.%s draws from the global source; use the injected seeded *rand.Rand", fn.Name())
				}
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					rep.Report(call, "time.%s reads the wall clock in solver code; inject a clock (func() time.Time)", fn.Name())
				}
			}
			return true
		})
	}
}
