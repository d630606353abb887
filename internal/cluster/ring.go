// Package cluster shards sweep-point computation across a fleet of
// rrserved worker processes. It has two halves:
//
//   - Client (coordinator side) implements experiment.PointComputer:
//     it places point keys on healthy workers by rendezvous hashing,
//     fans out batched HTTP compute requests, hedges stragglers,
//     retries failed batches against surviving workers, and streams
//     verified results back to the engine. Health probing ejects
//     unresponsive workers from placement and re-admits them when they
//     recover.
//
//   - Worker (worker side) serves the shard-scoped compute API: it
//     receives explicit cell lists and computes them through the
//     local engine and point store (Experiment.ComputeCells).
//
// Safety rests on the point store's content-addressing: every cell is
// a pure function of its SHA-256 key, workers derive their own keys
// (folding in their engine version), and the coordinator matches
// results by key — so duplicated hedges dedupe trivially, a re-placed
// retry recomputes identical bytes, and a version-skewed worker's
// results are dropped instead of mixed in. Anything the cluster fails
// to deliver is simulated locally by the coordinator's engine; the
// fleet can only make a sweep faster, never wrong.
package cluster

import (
	"hash/fnv"
	"sort"
)

// mix64 is the MurmurHash3 64-bit finalizer. FNV-1a alone avalanches
// poorly on near-identical short inputs such as "http://worker-0:8080"
// and "http://worker-1:8080": their hashes cluster, and ranking by an
// unfinalized keyHash^workerHash lets the few bits the workers differ
// in pick the owner (one of three workers took half of 20,000 keys).
// One multiply-xor-shift round spreads them uniformly while staying
// deterministic across processes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hash64 is FNV-1a of s, finalized by mix64. It hashes both point keys
// and worker URLs; it is stable across processes and restarts, so
// every coordinator places the same keys on the same workers (cache
// affinity survives coordinator restarts).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// member is a worker as placement sees it: its URL and hash64 of the
// URL, computed once when the client is built.
type member struct {
	url  string
	hash uint64
}

// owners ranks members for key by rendezvous (highest-random-weight)
// hashing and returns the URLs of up to n of them, best first. The
// first is the key's owner; later ones are where retries and hedges
// go. A member's score for a key depends on nothing but the two
// hashes, so removing a member moves only the keys it owned, adding
// one moves keys only onto it, and member order never matters (equal
// scores, a 64-bit URL-hash collision, break by URL).
func owners(key string, members []member, n int) []string {
	kh := hash64(key)
	score := func(m member) uint64 { return mix64(kh ^ m.hash) }
	ranked := append([]member(nil), members...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := score(ranked[i]), score(ranked[j])
		return si > sj || si == sj && ranked[i].url < ranked[j].url
	})
	out := make([]string, max(0, min(n, len(ranked))))
	for i := range out {
		out[i] = ranked[i].url
	}
	return out
}
