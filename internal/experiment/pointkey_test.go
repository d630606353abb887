package experiment

import (
	"strings"
	"testing"

	"regreloc/internal/rng"
	"regreloc/internal/testutil"
)

// The point key is the entire soundness argument of the point store:
// two keys are equal exactly when the measurements they address are
// byte-identical. These tests pin both directions — keys must not
// depend on how a grid was declared or swept (or overlapping requests
// would never share entries), and they must differ across everything
// that changes result bytes (or the store would serve wrong data).

func TestPointKeyIgnoresGridShape(t *testing.T) {
	scale := Quick
	e, ok := Get("figure5")
	if !ok || e.PointKeys == nil {
		t.Fatal("figure5 has no PointKeys")
	}
	// The same (f, r, l, arch) cell reached through differently ordered
	// and differently sized grids must produce one key. PointKeys
	// enumerates whole grids; collect each cell's key per grid and
	// compare the shared cell.
	keysOf := func(g Grids) map[string]bool {
		ks := e.PointKeys(1, scale, g)
		set := make(map[string]bool, len(ks))
		for _, k := range ks {
			set[k] = true
		}
		return set
	}
	a := keysOf(Grids{F: []int{64, 128}, R: []int{8, 32}, L: []int{16, 32}})
	b := keysOf(Grids{F: []int{128, 64}, R: []int{32, 8}, L: []int{32, 16}}) // same cells, reversed axes
	c := keysOf(Grids{F: []int{64}, R: []int{8}, L: []int{16}})              // sub-grid
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("grid key counts = %d, %d, want 16 each", len(a), len(b))
	}
	for k := range b {
		if !a[k] {
			t.Fatal("axis-reordered grid produced a key the original grid lacks")
		}
	}
	for k := range c {
		if !a[k] {
			t.Fatal("sub-grid cell keyed differently than the same cell in the full grid")
		}
	}
}

func TestPointKeyDistinctness(t *testing.T) {
	base := func() string {
		return pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed")
	}
	variants := map[string]string{
		"engine":     pointKeyWith("engine-b", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed"),
		"experiment": pointKeyWith("engine-a", FidelitySim, "figure6", 1, 32, 2000, 64, 8, 16, "fixed"),
		"seed":       pointKeyWith("engine-a", FidelitySim, "figure5", 2, 32, 2000, 64, 8, 16, "fixed"),
		"threads":    pointKeyWith("engine-a", FidelitySim, "figure5", 1, 64, 2000, 64, 8, 16, "fixed"),
		"work":       pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2001, 64, 8, 16, "fixed"),
		"f":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 128, 8, 16, "fixed"),
		"r":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 32, 16, "fixed"),
		"l":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 32, "fixed"),
		"arch":       pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "flexible"),
		"fidelity":   pointKeyWith("engine-a", FidelityAnalytic, "figure5", 1, 32, 2000, 64, 8, 16, "fixed"),
	}
	seen := map[string]string{base(): "base"}
	for what, k := range variants {
		if k == base() {
			t.Errorf("changing %s did not change the key", what)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collided", what, prev)
		}
		seen[k] = what
	}
	if base() != base() {
		t.Error("key not deterministic")
	}
}

// TestPointKeyNeighbourSeedsDiffer is the collision sanity check tying
// keys to the RNG layer: neighbouring coordinates derive distinct seeds
// (rng.DeriveSeed) AND distinct keys, so adjacent grid cells can never
// share either a stream or a cache entry.
func TestPointKeyNeighbourSeedsDiffer(t *testing.T) {
	type cell struct{ f, r, l, ai int }
	cells := []cell{{64, 8, 16, 0}, {64, 8, 16, 1}, {64, 8, 32, 0}, {64, 32, 16, 0}, {128, 8, 16, 0}}
	archs := []string{"fixed", "flexible"}
	seeds := map[uint64]cell{}
	keys := map[string]cell{}
	for _, c := range cells {
		s := rng.DeriveSeed(1, uint64(c.f), uint64(c.r), uint64(c.l), uint64(c.ai))
		if prev, dup := seeds[s]; dup {
			t.Errorf("cells %+v and %+v derive the same seed", c, prev)
		}
		seeds[s] = c
		k := pointKey("figure5", 1, Quick, c.f, c.r, c.l, archs[c.ai])
		if prev, dup := keys[k]; dup {
			t.Errorf("cells %+v and %+v derive the same key", c, prev)
		}
		keys[k] = c
	}
}

// TestSweepKeysMatchSweepOrder pins the planner contract: the keys
// PointKeys enumerates are exactly the keys the engine attaches to its
// points, in the report's row order (panel-major over F, then R, then
// L, then arch) — otherwise the serve planner would count coverage
// against entries the engine never writes.
func TestSweepKeysMatchSweepOrder(t *testing.T) {
	e, ok := Get("figure5")
	if !ok || e.PointKeys == nil {
		t.Fatal("figure5 has no PointKeys planner")
	}
	g := Grids{F: []int{64}, R: []int{8}, L: []int{16, 32}}
	planned := e.PointKeys(1, Quick, g)
	archs := []string{"fixed", "flexible"}
	var built []string
	for _, l := range []int{16, 32} {
		for _, a := range archs {
			built = append(built, pointKey("figure5", 1, Quick, 64, 8, l, a))
		}
	}
	if len(planned) != len(built) {
		t.Fatalf("planned %d keys, built %d", len(planned), len(built))
	}
	for i := range planned {
		if planned[i] != built[i] {
			t.Fatalf("key %d: planner and sweep disagree", i)
		}
	}
}

// TestPointKeyPinnedDigests pins the key preimage to committed digests,
// one cell per fidelity tier, with the engine version held fixed. A
// point store persisted by an earlier build stays addressable only
// while these hold: any change to the preimage's layout, field order
// or formatting must bump pointSchema (and these digests) on purpose.
func TestPointKeyPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		fid        Fidelity
		experiment string
		seed       uint64
		threads    int
		work       int64
		f, r, l    int
		arch       string
		want       string
	}{
		{FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed", "802118e629defc89a07bc3b549443a1e41105ad1eccaec65b7176c4174314697"},
		{FidelityMachine, "figure6", 7, 64, 51200, 128, 128, 1024, "flexible", "1157d96872907b48c8075face987987d27d8316e3181d834552b16facb57cd1e"},
		{FidelityAnalytic, "figure6a-cheap", 3, 32, 12800, 64, 32, 256, "flexible-lookup", "8ef118ecbdb09a924281da5013c586ea60c6f51581b00c286c7bc0501c472569"},
	} {
		got := pointKeyWith("pinned-engine", c.fid, c.experiment, c.seed, c.threads, c.work, c.f, c.r, c.l, c.arch)
		if got != c.want {
			t.Errorf("%s %s cell key = %s, want %s", c.fid, c.experiment, got, c.want)
		}
	}
}

// TestPointKeyAllocs: a key costs one allocation, its string. The
// preimage is built in a stack buffer and hashed with sha256.Sum256;
// formatting it with fmt into a fresh digest cost nine.
func TestPointKeyAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	engine := "pinned-engine-" + strings.Repeat("0123456789abcdef", 4)
	allocs := testing.AllocsPerRun(100, func() {
		pointKeyWith(engine, FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed")
	})
	if allocs > 1 {
		t.Errorf("pointKeyWith: %v allocations, want 1", allocs)
	}
}
