package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real point keys: a fixed prefix plus a hex-ish tail.
		keys[i] = fmt.Sprintf("pt-%08x-%d", i*2654435761, i)
	}
	return keys
}

// members builds a placement list from worker URLs, in the given order.
func members(urls ...string) []member {
	out := make([]member, len(urls))
	for i, u := range urls {
		out[i] = member{url: u, hash: hash64(u)}
	}
	return out
}

// owner is the top-ranked member for key, or ok=false for no members.
func owner(key string, ms []member) (string, bool) {
	top := owners(key, ms, 1)
	if len(top) == 0 {
		return "", false
	}
	return top[0], true
}

func TestRingOwnerStableAndOrderIndependent(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	fwd := members(nodes...)
	rev := members(nodes[3], nodes[2], nodes[1], nodes[0])
	for _, k := range testKeys(2000) {
		a, ok1 := owner(k, fwd)
		b, ok2 := owner(k, rev)
		if !ok1 || !ok2 {
			t.Fatalf("owner missing for %q on a populated list", k)
		}
		if a != b {
			t.Fatalf("owner of %q depends on member order: %q vs %q", k, a, b)
		}
		if a2, _ := owner(k, fwd); a2 != a {
			t.Fatalf("owner of %q not stable across calls", k)
		}
	}
}

// TestRingUniformity chi-squared-tests the key distribution over 2, 3,
// 5 and 8 workers. The hash is deterministic, so this is a fixed
// computation, not a statistical gamble: if it fails, the hash mixing
// regressed. With df = 7 the 99.9th percentile of chi-squared is 24.3;
// we allow 30 at every size so only a real skew (not a marginal one)
// trips it.
func TestRingUniformity(t *testing.T) {
	const keys = 20000
	for _, nodes := range []int{2, 3, 5, 8} {
		urls := make([]string, nodes)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://worker-%d:8080", i)
		}
		ms := members(urls...)
		counts := make(map[string]int)
		for _, k := range testKeys(keys) {
			o, ok := owner(k, ms)
			if !ok {
				t.Fatal("no owner on a populated list")
			}
			counts[o]++
		}
		if len(counts) != nodes {
			t.Fatalf("%d workers: only %d own keys: %v", nodes, len(counts), counts)
		}
		expected := float64(keys) / float64(nodes)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 30 {
			t.Fatalf("%d workers: chi-squared = %.1f over %v (expected %.0f per worker): distribution too skewed",
				nodes, chi2, counts, expected)
		}
	}
}

// TestRingRemoveMovesOnlyTheRemovedNodesKeys pins the bounded-movement
// contract on scale-down: ejecting a worker must not reshuffle keys
// between the survivors, or every ejection would cold-start every
// worker's point cache.
func TestRingRemoveMovesOnlyTheRemovedNodesKeys(t *testing.T) {
	const victim = "http://b:1"
	all := members("http://a:1", victim, "http://c:1", "http://d:1")
	survivors := members("http://a:1", "http://c:1", "http://d:1")
	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		before, _ := owner(k, all)
		after, ok := owner(k, survivors)
		if !ok {
			t.Fatal("no owner after removal")
		}
		if before == victim {
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, before, after)
		}
	}
	// The victim's share should be roughly a quarter; allow wide slack
	// since this asserts "its keys and only its keys moved", not balance.
	if moved == 0 || moved > len(keys)/2 {
		t.Fatalf("moved %d/%d keys on removing 1 of 4 nodes", moved, len(keys))
	}
}

// TestRingAddBoundsKeyMovement pins scale-up: adding a node may only
// move keys onto the new node, and not many more than its fair 1/n
// share.
func TestRingAddBoundsKeyMovement(t *testing.T) {
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, fmt.Sprintf("http://w%d:1", i))
	}
	const newcomer = "http://w4:1"
	old, grown := members(urls...), members(append(urls, newcomer)...)
	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		before, _ := owner(k, old)
		after, _ := owner(k, grown)
		if after == before {
			continue
		}
		if after != newcomer {
			t.Fatalf("key %q moved %q -> %q, not to the new node", k, before, after)
		}
		moved++
	}
	fair := len(keys) / 5
	if moved > 2*fair {
		t.Fatalf("adding 1 of 5 nodes moved %d keys, want <= %d (2x fair share)", moved, 2*fair)
	}
	if moved == 0 {
		t.Fatal("new node owns no keys")
	}
}

func TestRingOwnersDistinctSuccessors(t *testing.T) {
	ms := members("http://w0:1", "http://w1:1", "http://w2:1")
	for _, k := range testKeys(100) {
		ranked := owners(k, ms, 3)
		if len(ranked) != 3 {
			t.Fatalf("owners(%q, 3) = %v, want all 3 nodes", k, ranked)
		}
		seen := map[string]bool{}
		for _, o := range ranked {
			if seen[o] {
				t.Fatalf("owners(%q, 3) repeats %q: %v", k, o, ranked)
			}
			seen[o] = true
		}
		if primary, _ := owner(k, ms); ranked[0] != primary {
			t.Fatalf("owners[0] = %q, owner = %q", ranked[0], primary)
		}
	}
	// Asking for more than exist returns what exists.
	if got := owners("some-key", ms, 10); len(got) != 3 {
		t.Fatalf("owners(_, 10) on 3 nodes = %v", got)
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	if _, ok := owner("k", nil); ok {
		t.Fatal("empty list claims an owner")
	}
	if got := owners("k", nil, 2); len(got) != 0 {
		t.Fatalf("empty list owners = %v", got)
	}
	if got := owners("k", members("http://a:1"), 0); len(got) != 0 {
		t.Fatalf("owners(_, 0) = %v", got)
	}
}
