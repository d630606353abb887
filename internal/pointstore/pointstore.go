// Package pointstore is a content-addressed byte store for
// experiment results. Its main tenants are individual sweep points:
// one entry per simulated point, keyed by a SHA-256 over everything
// that determines the point's bytes (engine version, experiment,
// seed, coordinates), so two jobs whose grids overlap by 90% share
// that 90% of the work. The serving layer (internal/serve) keeps each
// finished report here as well, under its request key; report keys
// and point keys hash different schema tags, so they never collide.
//
// Hot entries live in memory under a byte budget, evicted entries
// spill to a disk tier whose index carries a per-entry checksum and a
// format version, and a persisted index lets a restarted process
// resume warm. On top of that the store adds cross-job single-flight
// coalescing (Do): concurrent computations of the same key share one
// execution, so two jobs sweeping overlapping grids simulate each
// shared point exactly once between them.
//
// Internally the store is sharded by key hash: each shard carries its
// own lock, CLOCK memory tier, in-flight table, and disk index, so
// point resolution scales with cores instead of funnelling through
// one mutex. All disk I/O and checksum computation happens with no
// shard lock held — spills run on a bounded background writer that
// pins evicted bytes in memory until they are durable, and disk-tier
// reads verify off-lock and promote with a re-check.
//
// Soundness rests on determinism: an entry's bytes are a pure
// function of the key's preimage (the engine derives every point's
// RNG stream from its coordinates, never from execution order), and
// keys embed the engine version, so entries written by an older
// binary simply stop matching instead of being served stale. Within a
// matching key, a disk checksum mismatch can only be corruption, and
// the entry is dropped and recomputed.
package pointstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Store is the content-addressed result byte store. All methods are
// safe for concurrent use.
type Store struct {
	shards []*shard
	mask   uint32
	budget int64
	dir    string
	fs     fsys
	// writer is the bounded async spill writer; nil for memory-only
	// stores (dir == "").
	writer *spillWriter
	// lock holds the directory's advisory lock file (dir/.lock) for
	// the store's lifetime; released by Close. nil when dir == "".
	lock *os.File

	// saveMu serializes SaveIndex and Close against each other.
	saveMu        sync.Mutex
	writerStopped bool

	// logMu guards the operational-warning sink (first spill failure).
	logMu           sync.Mutex
	logf            func(format string, args ...any)
	spillFailLogged bool
}

// Options tunes the store's concurrency structure. The zero value
// picks defaults sized to the machine.
type Options struct {
	// Shards is the shard count, rounded up to a power of two. 0 picks
	// the next power of two >= GOMAXPROCS (capped at 128). More shards
	// reduce lock contention; each adds a fixed bookkeeping cost.
	Shards int
	// SpillQueue bounds the async spill writer's backlog in entries
	// (0 = 256). Entry-creating calls (Put, Do) wait below the cap;
	// Get/Contains never block on it.
	SpillQueue int

	// fs injects a filesystem for tests (blocking or failing disks).
	// nil uses the real one.
	fs fsys
}

const (
	defaultSpillQueue = 256
	maxShards         = 128
)

// SetLogf redirects the store's operational warnings (e.g. the first
// disk-spill failure) to f. The default is the standard logger.
func (s *Store) SetLogf(f func(format string, args ...any)) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.logf = f
}

// Counters are the store's monotonic event counts, exposed for the
// metrics endpoint and for tests pinning coalescing behaviour. Counts
// are aggregated across shards.
type Counters struct {
	// Hits are lookups answered from memory or verified disk.
	Hits int64
	// Misses are Do calls that had to compute. Lookups that find
	// nothing (Get, GetBatch) are not counted.
	Misses int64
	// Joins are Do calls that attached to an in-flight computation of
	// the same key instead of starting their own.
	Joins int64
	// Evictions counts entries pushed out of the memory tier by the
	// byte budget.
	Evictions int64
	// SpillBytes is the total payload bytes written to the disk tier.
	SpillBytes int64
	// VerifyFails counts disk entries dropped because their payload
	// no longer matched the indexed checksum.
	VerifyFails int64
	// SpillFails counts entries that could not be written to the disk
	// tier: an evicted entry whose spill fails is lost (the memory
	// tier already dropped it), so a non-zero count means the store's
	// working set is smaller than the caller believes and SaveIndex
	// persisted an incomplete index. Spills are asynchronous — call
	// Flush (or SaveIndex) before reading this for an exact count.
	SpillFails int64
}

type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// diskEntry is one spilled result in the persisted index.
type diskEntry struct {
	Size int64  `json:"size"`
	Sum  string `json:"sum"` // hex SHA-256 of the payload bytes
}

// storeIndex is the on-disk index format (dir/points.json). The index
// is a single file shared by all shards: sharding is an in-memory
// concurrency structure, not a storage format, so the shard count can
// change between runs without invalidating the disk tier.
type storeIndex struct {
	Version int                  `json:"version"`
	Entries map[string]diskEntry `json:"entries"`
}

// indexVersion gates index loading: an index written under a
// different format is discarded wholesale (the store starts cold)
// instead of being reinterpreted.
const indexVersion = 1

// indexName is the persisted index file inside the spill directory.
// Payloads sit beside it as <key>.bin.
const indexName = "points.json"

// lockName is the advisory lock file guarding a spill directory. The
// disk tier assumes a single writing process: two stores sharing a dir
// would clobber each other's points.json on SaveIndex and race payload
// writes. New takes the lock; Close releases it.
const lockName = ".lock"

// New returns a store with the given in-memory byte budget (<= 0
// disables the memory tier) and optional spill directory, using
// default Options. See NewWith.
func New(budget int64, dir string) (*Store, error) {
	return NewWith(budget, dir, Options{})
}

// NewWith returns a store with the given in-memory byte budget (<= 0
// disables the memory tier), optional spill directory, and options.
// An existing index in the directory is loaded so a restarted process
// resumes with its disk tier warm.
//
// The directory is claimed with an advisory lock (dir/.lock) held
// until Close: if another live process already holds it, NewWith
// fails with a clear error instead of letting two disk tiers silently
// clobber each other's index. Locks die with their holder, so a
// crashed process never strands a directory.
func NewWith(budget int64, dir string, opts Options) (*Store, error) {
	nshards := nextPow2(opts.Shards)
	if opts.Shards <= 0 {
		nshards = nextPow2(runtime.GOMAXPROCS(0))
	}
	if nshards > maxShards {
		nshards = maxShards
	}
	queue := opts.SpillQueue
	if queue <= 0 {
		queue = defaultSpillQueue
	}
	fs := opts.fs
	if fs == nil {
		fs = osFS{}
	}
	s := &Store{
		shards: make([]*shard, nshards),
		mask:   uint32(nshards - 1),
		budget: budget,
		dir:    dir,
		fs:     fs,
	}
	// Each shard polices budget/nshards so the total stays bounded no
	// matter how keys distribute. A tiny budget still gets a non-zero
	// memory tier per shard rather than rounding to memory-disabled.
	shardBudget := budget / int64(nshards)
	if budget > 0 && shardBudget == 0 {
		shardBudget = budget
	}
	for i := range s.shards {
		s.shards[i] = newShard(s, shardBudget)
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pointstore: dir: %w", err)
	}
	lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pointstore: lock file: %w", err)
	}
	if err := flockExclusive(lf); err != nil {
		lf.Close()
		return nil, fmt.Errorf("pointstore: cache dir %s is locked by another process "+
			"(each process needs its own point-cache dir; see docs/cluster.md): %w", dir, err)
	}
	s.lock = lf
	s.writer = newSpillWriter(s, queue)
	raw, err := os.ReadFile(filepath.Join(dir, indexName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("pointstore: index: %w", err)
	}
	var idx storeIndex
	if err := json.Unmarshal(raw, &idx); err != nil || idx.Version != indexVersion {
		// A corrupt or old-format index is not fatal: start cold rather
		// than refuse to serve (or misread another format's entries).
		return s, nil
	}
	for k, e := range idx.Entries {
		s.shardFor(k).disk[k] = e
	}
	return s, nil
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardFor maps a key to its shard. Keys are content addresses (hex
// SHA-256), so hashing the last 16 bytes distributes uniformly while
// keeping the hash a fraction of a full-key pass; degenerate non-hash
// keys that share a suffix merely share a shard, which affects only
// contention, never correctness.
func (s *Store) shardFor(key string) *shard {
	return s.shards[s.shardIndex(key)]
}

func (s *Store) shardIndex(key string) uint32 {
	h := uint32(2166136261) // FNV-1a
	i := len(key) - 16
	if i < 0 {
		i = 0
	}
	for ; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	h ^= h >> 16
	return h & s.mask
}

// lookup is the unified tiered read: memory, then the spill writer's
// pending pins, then the verified disk tier. It does no hit/miss
// accounting; callers count according to their own semantics.
func (s *Store) lookup(sh *shard, key string) ([]byte, bool) {
	if data, ok := sh.memGet(key); ok {
		return data, true
	}
	if s.writer != nil {
		if data, ok := s.writer.pendingGet(key); ok {
			return data, true
		}
	}
	return sh.diskGet(key)
}

// Get returns the bytes stored for key. Memory hits mark CLOCK
// recency; disk hits are verified against the indexed checksum,
// promoted into memory, and kept on disk. Get never blocks on disk
// writes: entries evicted but not yet durably spilled are served from
// the writer's pinned copy.
//
// Counters: a found key counts one Hit; an absent key is not counted,
// as in GetBatch. Misses count computations, which only Do performs.
func (s *Store) Get(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	data, ok := s.lookup(sh, key)
	if ok {
		sh.hits.Add(1)
	}
	return data, ok
}

// Contains reports whether key is resident in memory, pending spill,
// or on disk, without touching the hit/miss counters. Planners use it
// to count a request's point-store coverage before queueing.
func (s *Store) Contains(key string) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	_, inMem := sh.items[key]
	_, onDisk := sh.disk[key]
	sh.mu.RUnlock()
	if inMem || onDisk {
		return true
	}
	if s.writer != nil {
		if _, ok := s.writer.pendingGet(key); ok {
			return true
		}
	}
	return false
}

// ContainsBatch reports Contains for every key in one pass: one read
// lock acquisition per shard touched, not per key. Empty keys report
// false. The result is index-aligned with keys.
func (s *Store) ContainsBatch(keys []string) []bool {
	out := make([]bool, len(keys))
	s.forEachShardBatch(keys, func(sh *shard, idxs []int) {
		sh.mu.RLock()
		for _, i := range idxs {
			if _, ok := sh.items[keys[i]]; ok {
				out[i] = true
				continue
			}
			if _, ok := sh.disk[keys[i]]; ok {
				out[i] = true
			}
		}
		sh.mu.RUnlock()
	})
	if s.writer != nil {
		s.writer.mu.Lock()
		for i, k := range keys {
			if !out[i] && k != "" {
				if _, ok := s.writer.pending[k]; ok {
					out[i] = true
				}
			}
		}
		s.writer.mu.Unlock()
	}
	return out
}

// GetBatch resolves every key in one pass per shard: memory hits are
// collected under a single read lock per shard, then pending-spill
// and disk-tier candidates are resolved off-lock. The result is
// index-aligned with keys; absent (or empty) keys yield nil.
//
// Counters: each resolved key counts one Hit; absent keys are NOT
// counted as misses. GetBatch is the planner/pre-pass probe — the
// authoritative miss count comes from the Do calls that follow for
// the unresolved keys, so counting misses here would double-book them.
func (s *Store) GetBatch(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	var diskIdx []int // indices needing an off-lock disk read
	s.forEachShardBatch(keys, func(sh *shard, idxs []int) {
		sh.mu.RLock()
		for _, i := range idxs {
			if e := sh.items[keys[i]]; e != nil {
				e.ref.Store(true)
				out[i] = e.data
				continue
			}
			if _, ok := sh.disk[keys[i]]; ok {
				diskIdx = append(diskIdx, i)
			}
		}
		sh.mu.RUnlock()
	})
	if s.writer != nil {
		s.writer.mu.Lock()
		for i, k := range keys {
			if out[i] == nil && k != "" {
				if data, ok := s.writer.pending[k]; ok {
					out[i] = data
				}
			}
		}
		s.writer.mu.Unlock()
	}
	var hits int64
	for _, i := range diskIdx {
		if out[i] != nil {
			continue // pending pin already resolved it
		}
		// diskGet re-reads the index entry itself; verification and
		// promotion run with no lock held.
		if data, ok := s.shardFor(keys[i]).diskGet(keys[i]); ok {
			out[i] = data
		}
	}
	for i := range out {
		if out[i] != nil {
			hits++
		}
	}
	if hits > 0 {
		s.shards[0].hits.Add(hits)
	}
	return out
}

// forEachShardBatch groups keys by shard (counting sort, no per-shard
// allocations beyond one index slice) and invokes fn once per
// non-empty shard with the indices of its keys. Empty keys are
// skipped.
func (s *Store) forEachShardBatch(keys []string, fn func(sh *shard, idxs []int)) {
	if len(s.shards) == 1 {
		idxs := make([]int, 0, len(keys))
		for i, k := range keys {
			if k != "" {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			fn(s.shards[0], idxs)
		}
		return
	}
	sidx := make([]uint32, len(keys))
	counts := make([]int, len(s.shards))
	for i, k := range keys {
		if k == "" {
			sidx[i] = ^uint32(0)
			continue
		}
		h := s.shardIndex(k)
		sidx[i] = h
		counts[h]++
	}
	offsets := make([]int, len(s.shards)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + c
	}
	order := make([]int, offsets[len(s.shards)])
	fill := make([]int, len(s.shards))
	copy(fill, offsets[:len(s.shards)])
	for i := range keys {
		if sidx[i] == ^uint32(0) {
			continue
		}
		order[fill[sidx[i]]] = i
		fill[sidx[i]]++
	}
	for si := range s.shards {
		if counts[si] > 0 {
			fn(s.shards[si], order[offsets[si]:offsets[si+1]])
		}
	}
}

// Covered returns how many of the given keys Contains reports,
// resolving the whole slice in one pass per shard.
func (s *Store) Covered(keys []string) int {
	n := 0
	for _, ok := range s.ContainsBatch(keys) {
		if ok {
			n++
		}
	}
	return n
}

// Do returns the bytes for key, computing them at most once across
// all concurrent callers: a stored entry is returned directly, a call
// arriving while another caller computes the same key waits for and
// shares that result (a "join"), and otherwise compute runs and its
// result is stored. The error, if any, comes from compute and is
// shared with joiners; failed computations are not stored.
//
// Do does not take a context: point computations are short (one
// simulation cell) and a joiner's result is already being paid for by
// the leader, so waiting it out is both cheap and useful.
func (s *Store) Do(key string, compute func() ([]byte, error)) ([]byte, error) {
	sh := s.shardFor(key)
	for {
		if data, ok := s.lookup(sh, key); ok {
			sh.hits.Add(1)
			return data, nil
		}
		sh.mu.Lock()
		if e := sh.items[key]; e != nil { // raced insert since lookup
			e.ref.Store(true)
			data := e.data
			sh.mu.Unlock()
			sh.hits.Add(1)
			return data, nil
		}
		if _, onDisk := sh.disk[key]; onDisk {
			// Spilled (or promoted then re-evicted) between the lookup
			// and taking the lock: retry the off-lock tiered read.
			sh.mu.Unlock()
			continue
		}
		if s.writer != nil {
			// A leader stores oversized results by enqueueing a spill in
			// the same critical section that removes its flight, so the
			// pending table must be consulted before starting a compute.
			// Taking writer.mu under sh.mu follows the lock order.
			if data, ok := s.writer.pendingGet(key); ok {
				sh.mu.Unlock()
				sh.hits.Add(1)
				return data, nil
			}
		}
		if f, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			sh.joins.Add(1)
			<-f.done
			return f.data, f.err
		}
		f := &flight{done: make(chan struct{})}
		sh.inflight[key] = f
		sh.mu.Unlock()
		sh.misses.Add(1)
		return s.lead(sh, key, f, compute)
	}
}

// lead runs a single-flight leader's computation and publishes the
// result to the store and to joiners.
func (s *Store) lead(sh *shard, key string, f *flight, compute func() ([]byte, error)) ([]byte, error) {
	completed := false
	defer func() {
		stored := completed && f.err == nil
		sh.mu.Lock()
		if stored {
			// Store and remove the flight in one critical section so a
			// concurrent Do either joins the flight or finds the entry —
			// the exactly-one-compute-per-key guarantee has no window.
			sh.putLocked(key, f.data)
		}
		delete(sh.inflight, key)
		sh.mu.Unlock()
		if !completed {
			// compute panicked: fail the joiners instead of deadlocking
			// them, then let the panic propagate.
			f.err = fmt.Errorf("pointstore: compute for %s panicked", key)
		}
		close(f.done)
		if stored && s.writer != nil {
			s.writer.waitCapacity()
		}
	}()
	f.data, f.err = compute()
	completed = true
	return f.data, f.err
}

// Put stores data under key (outside any single-flight accounting).
// The write is admitted immediately; if it displaces entries past the
// budget, the spill happens asynchronously and Put applies the
// writer's backpressure off-lock.
func (s *Store) Put(key string, data []byte) {
	s.shardFor(key).put(key, data)
	if s.writer != nil {
		s.writer.waitCapacity()
	}
}

// spillEvicted hands an evicted entry to the async writer. Called
// with the shard lock held — it must not block or touch the disk.
// Memory-only stores drop evicted bytes, as ever.
func (s *Store) spillEvicted(sh *shard, key string, data []byte) {
	if s.writer == nil {
		return
	}
	if _, ok := sh.disk[key]; ok {
		return // already durable (e.g. promoted from disk, then evicted)
	}
	s.writer.enqueue(sh, key, data)
}

// writeEntry performs one spill: payload write, checksum, and index
// commit. The write and checksum run with no lock held; only the
// final index commit briefly takes the shard's write lock. A write
// failure is counted in SpillFails and logged once — for an evicted
// entry it means the bytes are gone from both tiers, so silence here
// would let SaveIndex report success over an incomplete index.
func (s *Store) writeEntry(sh *shard, key string, data []byte) error {
	if err := s.fs.WriteFile(s.path(key), data, 0o644); err != nil {
		sh.spillFails.Add(1)
		s.warnSpillOnce(err)
		return fmt.Errorf("pointstore: spilling %s: %w", key, err)
	}
	sum := checksum(data)
	sh.mu.Lock()
	if _, ok := sh.disk[key]; !ok {
		sh.disk[key] = diskEntry{Size: int64(len(data)), Sum: sum}
		sh.spillBytes.Add(int64(len(data)))
	}
	sh.mu.Unlock()
	return nil
}

func (s *Store) warnSpillOnce(err error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.spillFailLogged {
		return
	}
	s.spillFailLogged = true
	logf := s.logf
	if logf == nil {
		logf = log.Printf
	}
	logf("pointstore: spill to %s failed (entry lost; further failures counted, not logged): %v", s.dir, err)
}

// Flush blocks until every spill queued so far has been attempted:
// afterwards, previously evicted entries are durable on disk or
// counted in SpillFails. Memory-only stores return immediately.
func (s *Store) Flush() {
	if s.writer != nil {
		s.writer.flush()
	}
}

// SaveIndex persists the disk-tier index; long-running processes call
// it during graceful shutdown so a restart resumes warm. The async
// spill queue is flushed and entries still only in memory are spilled
// first, so the whole working set is persisted, not just the evicted
// part. Spill failures do not stop the remaining entries from being
// persisted, but they surface in the returned error (joined) so the
// caller knows the index is partial.
func (s *Store) SaveIndex() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if s.dir == "" {
		return nil
	}
	s.writer.flush()
	var spillErr error
	for _, sh := range s.shards {
		// Snapshot memory entries not yet durable, then spill them with
		// no shard lock held.
		type kv struct {
			key  string
			data []byte
		}
		var todo []kv
		sh.mu.RLock()
		for k, e := range sh.items {
			if _, onDisk := sh.disk[k]; !onDisk {
				todo = append(todo, kv{k, e.data})
			}
		}
		sh.mu.RUnlock()
		for _, t := range todo {
			spillErr = errors.Join(spillErr, s.writeEntry(sh, t.key, t.data))
		}
	}
	entries := make(map[string]diskEntry)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, e := range sh.disk {
			entries[k] = e
		}
		sh.mu.RUnlock()
	}
	idx := storeIndex{Version: indexVersion, Entries: entries}
	raw, err := json.MarshalIndent(idx, "", " ")
	if err != nil {
		return errors.Join(spillErr, err)
	}
	tmp := filepath.Join(s.dir, indexName+".tmp")
	if err := s.fs.WriteFile(tmp, raw, 0o644); err != nil {
		return errors.Join(spillErr, err)
	}
	return errors.Join(spillErr, s.fs.Rename(tmp, filepath.Join(s.dir, indexName)))
}

// Close drains the spill writer and releases the spill directory's
// advisory lock so another process (or a fresh Store) can claim the
// dir. It does not persist the index — call SaveIndex first if the
// disk tier should survive. Close is idempotent and a no-op for
// memory-only stores; the store must not be used after Close.
func (s *Store) Close() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if s.writer != nil && !s.writerStopped {
		s.writerStopped = true
		s.writer.stop()
	}
	if s.lock == nil {
		return nil
	}
	lf := s.lock
	s.lock = nil
	flockRelease(lf)
	return lf.Close()
}

// Len returns the number of in-memory entries; DiskLen the number of
// spilled ones; Bytes the in-memory payload size. Entries in the
// spill writer's pending window count toward none of the three — they
// are in transit between tiers.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

func (s *Store) DiskLen() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.disk)
		sh.mu.RUnlock()
	}
	return n
}

func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.size
		sh.mu.RUnlock()
	}
	return n
}

// Shards returns the store's shard count (a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// SpillPending returns the number of evicted entries queued for (or
// in the middle of) their background disk write.
func (s *Store) SpillPending() int {
	if s.writer == nil {
		return 0
	}
	return s.writer.pendingCount()
}

// Counters returns a snapshot of the store's event counts, aggregated
// across shards.
func (s *Store) Counters() Counters {
	var c Counters
	for _, sh := range s.shards {
		c.Hits += sh.hits.Load()
		c.Misses += sh.misses.Load()
		c.Joins += sh.joins.Load()
		c.Evictions += sh.evictions.Load()
		c.SpillBytes += sh.spillBytes.Load()
		c.VerifyFails += sh.verifyFails.Load()
		c.SpillFails += sh.spillFails.Load()
	}
	return c
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".bin")
}

func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// EngineVersion identifies the code that computes result bytes: the
// module version plus the VCS revision stamped into the build, if
// any. Both the per-point keys and the serving layer's report keys
// fold it in, so a persisted store is invalidated by upgrading
// the binary — an old entry simply stops matching — rather than
// served as current.
//
// Builds whose stamp does not uniquely identify the engine code —
// no VCS revision at all (go test binaries, go run, builds outside a
// checkout: version "(devel)" or "unknown") or a revision stamped
// from a dirty worktree (vcs.modified) — additionally fold in a hash
// of the running executable. Without that, every recompiled dev
// binary would report the same version string and happily decode a
// previous binary's persisted disk entries even when the engine
// semantics changed underneath them. See docs/serve.md ("The
// invalidation contract for unstamped builds").
func EngineVersion() string { return engineVer() }

var engineVer = sync.OnceValue(func() string {
	bi, _ := debug.ReadBuildInfo()
	return engineVersion(bi, executableSum)
})

// engineVersion derives the version string from build info plus an
// executable-hash source, factored out so the unstamped and dirty
// cases are unit-testable (the process's own build info is fixed).
func engineVersion(bi *debug.BuildInfo, exeSum func() (string, error)) string {
	v := "unknown"
	var rev string
	var modified bool
	if bi != nil {
		if bi.Main.Version != "" {
			v = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if rev != "" {
		v += "+" + rev
		if !modified {
			return v // clean stamped build: the revision is the code
		}
	}
	sum, err := exeSum()
	if err != nil {
		// The binary's own image cannot be hashed, so nothing stable
		// identifies this engine. Fold in a per-process nonce: entries
		// this process writes are readable within it but never trusted
		// by any other process — equivalent to refusing persistence,
		// and strictly safer than serving a stale cache.
		return fmt.Sprintf("%s+exe:unreadable.%d.%d", v, os.Getpid(), time.Now().UnixNano())
	}
	return v + "+exe:" + sum
}

// executableSum hashes the running binary's content, truncated to 16
// hex chars — plenty to distinguish rebuilds, short enough to keep
// keys readable.
func executableSum() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
