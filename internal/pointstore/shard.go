package pointstore

import (
	"sync"
	"sync/atomic"
)

// shard is one independently locked slice of the store: its own
// memory tier, disk index, in-flight table, and counters. Keys are
// assigned to shards by hash, so two goroutines resolving different
// points contend only when their keys land on the same shard.
//
// The memory tier is a CLOCK (second-chance) ring rather than a
// strict LRU list: a hit only sets the entry's atomic reference bit,
// so Get and Covered run entirely under the shard's read lock and
// scale with readers. Eviction sweeps the ring clearing reference
// bits and evicts the first entry found unreferenced — an LRU
// approximation that gives hot entries a second chance without
// mutating a linked list on every read.
type shard struct {
	st     *Store
	budget int64

	mu    sync.RWMutex
	items map[string]*centry
	ring  []*centry // CLOCK ring; order is insertion order, not recency
	hand  int       // next ring slot the eviction sweep examines
	size  int64
	disk  map[string]diskEntry
	// inflight tracks keys being computed right now; later Do calls
	// for the same key wait for the leader instead of recomputing.
	inflight map[string]*flight

	// Event counters are per-shard atomics (aggregated by
	// Store.Counters) so hit accounting never needs the write lock.
	hits, misses, joins     atomic.Int64
	evictions, spillBytes   atomic.Int64
	verifyFails, spillFails atomic.Int64
}

// centry is one in-memory entry on the CLOCK ring.
type centry struct {
	key  string
	data []byte
	ref  atomic.Bool // second-chance bit; set on hit under RLock
	slot int         // index in the ring (maintained by swap-remove)
}

func newShard(st *Store, budget int64) *shard {
	return &shard{
		st:       st,
		budget:   budget,
		items:    make(map[string]*centry),
		disk:     make(map[string]diskEntry),
		inflight: make(map[string]*flight),
	}
}

// memGet answers from the memory tier under the read lock, marking
// the entry referenced so the eviction sweep skips it once.
func (sh *shard) memGet(key string) ([]byte, bool) {
	sh.mu.RLock()
	e := sh.items[key]
	var data []byte
	if e != nil {
		e.ref.Store(true)
		data = e.data
	}
	sh.mu.RUnlock()
	return data, e != nil
}

// diskGet resolves key from the disk tier. The read and the checksum
// both happen with no lock held; the entry is then promoted into
// memory under the write lock with a presence re-check.
func (sh *shard) diskGet(key string) ([]byte, bool) {
	sh.mu.RLock()
	de, ok := sh.disk[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	st := sh.st
	data, err := st.fs.ReadFile(st.path(key))
	if err == nil && checksum(data) == de.Sum {
		sh.promote(key, data)
		return data, true
	}
	// Missing or corrupt payload: drop the index entry so callers
	// recompute instead of receiving bad bytes. Re-check under the
	// write lock — a concurrent writer may have replaced the entry.
	sh.mu.Lock()
	if cur, still := sh.disk[key]; still && cur == de {
		delete(sh.disk, key)
		sh.verifyFails.Add(1)
		sh.mu.Unlock()
		st.fs.Remove(st.path(key))
		return nil, false
	}
	sh.mu.Unlock()
	return nil, false
}

// promote inserts a disk-verified entry into the memory tier (keeping
// it on disk). Entries that don't fit the memory budget stay disk-only.
func (sh *shard) promote(key string, data []byte) {
	if sh.budget <= 0 || int64(len(data)) > sh.budget {
		return
	}
	sh.mu.Lock()
	sh.insertLocked(key, data)
	sh.mu.Unlock()
}

// put stores data under key: into memory when it fits the budget,
// straight to the disk tier (via the async writer) when oversized or
// when the memory tier is disabled.
func (sh *shard) put(key string, data []byte) {
	sh.mu.Lock()
	sh.putLocked(key, data)
	sh.mu.Unlock()
}

// putLocked is put with sh.mu already held for writing. Nothing here
// blocks: the disk-tier path only enqueues to the async writer.
func (sh *shard) putLocked(key string, data []byte) {
	if sh.budget > 0 && int64(len(data)) <= sh.budget {
		sh.insertLocked(key, data)
		return
	}
	st := sh.st
	if st.writer == nil {
		return // memory-only store, entry too big for the budget: dropped
	}
	if _, onDisk := sh.disk[key]; !onDisk {
		st.writer.enqueue(sh, key, data)
	}
}

// insertLocked adds an entry to the memory tier and evicts past the
// budget. Caller holds sh.mu for writing. No disk I/O happens here:
// evicted entries are handed to the async spill writer, which pins
// their bytes until the write lands. New entries start unreferenced:
// only a hit earns the second chance, so a burst of write-once
// entries cannot push out entries that are actually being read.
func (sh *shard) insertLocked(key string, data []byte) {
	if _, exists := sh.items[key]; exists {
		return // determinism: same key means same bytes
	}
	e := &centry{key: key, data: data, slot: len(sh.ring)}
	sh.items[key] = e
	sh.ring = append(sh.ring, e)
	sh.size += int64(len(data))
	for sh.size > sh.budget && len(sh.ring) > 1 {
		v := sh.clockVictimLocked(e)
		sh.removeLocked(v)
		sh.evictions.Add(1)
		sh.st.spillEvicted(sh, v.key, v.data)
	}
}

// clockVictimLocked advances the clock hand, clearing reference bits,
// until it finds an unreferenced entry. The entry being inserted is
// exempt (evicting the newest write would defeat the insert). Bounded
// at two revolutions: after one full sweep every bit has been
// cleared, so the second pass must find a victim.
func (sh *shard) clockVictimLocked(skip *centry) *centry {
	for i := 0; i < 2*len(sh.ring); i++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		sh.hand++
		if e == skip {
			continue
		}
		if e.ref.CompareAndSwap(true, false) {
			continue // second chance: spare it this revolution
		}
		return e
	}
	// Unreachable with len(ring) > 1; defensive fallback.
	if sh.ring[0] != skip {
		return sh.ring[0]
	}
	return sh.ring[1]
}

// removeLocked deletes an entry from the ring by swapping the last
// element into its slot (the ring is unordered, so this is O(1)).
func (sh *shard) removeLocked(e *centry) {
	delete(sh.items, e.key)
	sh.size -= int64(len(e.data))
	last := len(sh.ring) - 1
	moved := sh.ring[last]
	sh.ring[e.slot] = moved
	moved.slot = e.slot
	sh.ring = sh.ring[:last]
	if sh.hand > last {
		sh.hand = 0
	}
}
