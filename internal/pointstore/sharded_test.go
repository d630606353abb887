package pointstore

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookFS wraps the real filesystem with injectable hooks, letting
// tests stall or fail disk operations to prove the locking contract.
type hookFS struct {
	read  func(name string)       // called before each ReadFile
	write func(name string) error // called before each WriteFile; non-nil error aborts the write
}

func (h hookFS) ReadFile(name string) ([]byte, error) {
	if h.read != nil {
		h.read(name)
	}
	return osFS{}.ReadFile(name)
}

func (h hookFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if h.write != nil {
		if err := h.write(name); err != nil {
			return err
		}
	}
	return osFS{}.WriteFile(name, data, perm)
}

func (h hookFS) Remove(name string) error             { return osFS{}.Remove(name) }
func (h hookFS) Rename(oldpath, newpath string) error { return osFS{}.Rename(oldpath, newpath) }

// mustFinish fails the test if fn does not return within the timeout —
// the assertion that an operation is not stalled behind disk I/O.
func mustFinish(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind disk I/O", what)
	}
}

// TestBlockedSpillWriteDoesNotStallStore is the acceptance test for
// the off-lock I/O contract: with the disk's write path stalled
// mid-spill, every store operation that does not itself need the disk
// — memory-tier Get/Covered, reads of the evicted-but-pinned entry,
// further Puts — completes promptly. Before the rewrite the spill ran
// inside the store lock, so a slow disk stalled every caller.
func TestBlockedSpillWriteDoesNotStallStore(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan string, 16)
	release := make(chan struct{})
	fs := hookFS{write: func(name string) error {
		if strings.HasSuffix(name, ".bin") {
			entered <- name
			<-release // disk "hangs" until the test releases it
		}
		return nil
	}}
	s, err := newStore(64, dir, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 48) }
	s.Put("a", payload(1))
	s.Put("b", payload(2)) // evicts "a"; its spill now hangs in WriteFile

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("spill writer never reached the disk")
	}

	// The spill is wedged. Nothing below may block on it.
	mustFinish(t, "Get(memory hit)", func() {
		if _, ok := s.Get("b"); !ok {
			t.Error("memory-resident entry missing")
		}
	})
	mustFinish(t, "Get(pending pin)", func() {
		if data, ok := s.Get("a"); !ok || !bytes.Equal(data, payload(1)) {
			t.Error("evicted-but-unspilled entry must be served from the pin")
		}
	})
	mustFinish(t, "Covered", func() {
		if !covered(s, "a") || !covered(s, "b") {
			t.Error("Covered lost entries during a stalled spill")
		}
	})
	mustFinish(t, "Put", func() { s.Put("c", payload(3)) })
	mustFinish(t, "Do(hit)", func() {
		if _, err := s.Do("c", func() ([]byte, error) {
			t.Error("Do recomputed a stored entry")
			return nil, nil
		}); err != nil {
			t.Error(err)
		}
	})

	go func() {
		for {
			select {
			case <-entered: // drain later spills ("b" evicted by "c", ...)
			case <-release:
				return
			}
		}
	}()
	close(release)
	s.Flush()
	if !covered(s, "a") {
		t.Error("entry lost after the stalled spill completed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailingDiskDoesNotStallGet is the fault-injection test for the
// synchronous-spill bug: a disk that errors every write used to make
// each evicting insert fail inline while callers waited. Now the
// failures land on the background writer — reads stay fast, and the
// loss is still fully accounted (SpillFails, one log line).
func TestFailingDiskDoesNotStallGet(t *testing.T) {
	dir := t.TempDir()
	var writes atomic.Int64
	fs := hookFS{write: func(name string) error {
		if strings.HasSuffix(name, ".bin") {
			writes.Add(1)
			time.Sleep(10 * time.Millisecond) // slow AND broken
			return fmt.Errorf("injected disk failure")
		}
		return nil
	}}
	s, err := newStore(64, dir, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	var logged atomic.Int64
	s.SetLogf(func(format string, args ...any) { logged.Add(1) })

	payload := bytes.Repeat([]byte{9}, 48)
	s.Put("a", payload)
	for i := 0; i < 8; i++ { // churn evictions through the broken disk
		s.Put(fmt.Sprintf("k%d", i), payload)
	}
	mustFinish(t, "Get during failing spills", func() {
		for i := 0; i < 100; i++ {
			s.Get("a")
			s.Get("k7")
		}
	})
	s.Flush()
	c := s.Counters()
	if c.SpillFails == 0 {
		t.Error("failed spills not counted")
	}
	if c.SpillFails != writes.Load() {
		t.Errorf("SpillFails = %d, want %d (one per attempted write)", c.SpillFails, writes.Load())
	}
	if logged.Load() != 1 {
		t.Errorf("logged %d warnings, want exactly 1", logged.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskReadRunsOffLock pins the read half of the contract: a Get
// that has to touch the disk holds no shard lock during the read, so
// memory-tier operations on the same shard proceed while it waits.
func TestDiskReadRunsOffLock(t *testing.T) {
	dir := t.TempDir()
	reading := make(chan struct{}, 16)
	release := make(chan struct{})
	var gate atomic.Bool
	fs := hookFS{read: func(name string) {
		if gate.Load() && strings.HasSuffix(name, ".bin") {
			reading <- struct{}{}
			<-release
		}
	}}
	s, err := newStore(64, dir, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 48) }
	s.Put("a", payload(1))
	s.Put("b", payload(2)) // evicts "a"
	s.Flush()              // "a" is now disk-only
	gate.Store(true)

	got := make(chan bool)
	go func() {
		data, ok := s.Get("a") // stalls inside ReadFile, off-lock
		got <- ok && bytes.Equal(data, payload(1))
	}()
	select {
	case <-reading:
	case <-time.After(5 * time.Second):
		t.Fatal("disk read never started")
	}

	// Same shard, memory tier: must not queue behind the stalled read.
	mustFinish(t, "Get(memory) during disk read", func() {
		if _, ok := s.Get("b"); !ok {
			t.Error("memory entry missing")
		}
	})
	mustFinish(t, "Put during disk read", func() { s.Put("c", payload(3)) })

	close(release)
	if !<-got {
		t.Fatal("stalled disk read returned wrong result")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchReadsSeeWedgedSpill: while an evicted entry's spill write
// is stalled, GetBatch and Covered still find it in the writer's pin,
// promptly, and Covered still counts nothing.
func TestBatchReadsSeeWedgedSpill(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan string, 16)
	release := make(chan struct{})
	fs := hookFS{write: func(name string) error {
		if strings.HasSuffix(name, ".bin") {
			entered <- name
			<-release
		}
		return nil
	}}
	s, err := newStore(64, dir, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 48) }
	s.Put("a", payload(1))
	s.Put("b", payload(2)) // evicts "a"; its spill hangs in WriteFile
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("spill writer never reached the disk")
	}
	if s.SpillPending() != 1 {
		t.Fatalf("SpillPending = %d, want the wedged entry", s.SpillPending())
	}

	keys := []string{"a", "b", "absent"}
	before := s.Counters()
	mustFinish(t, "Covered", func() {
		if n := s.Covered(keys); n != 2 {
			t.Errorf("Covered = %d, want 2 (the pinned and the resident entry)", n)
		}
	})
	if s.Counters() != before {
		t.Error("Covered changed the counters")
	}
	mustFinish(t, "GetBatch", func() {
		got := s.GetBatch(keys)
		if !bytes.Equal(got[0], payload(1)) || !bytes.Equal(got[1], payload(2)) || got[2] != nil {
			t.Error("GetBatch must serve the pinned entry and the resident one, and nothing else")
		}
	})
	if c := s.Counters(); c.Hits-before.Hits != 2 || c.Misses != before.Misses {
		t.Errorf("GetBatch counters = %+v, want 2 more hits and no misses", c)
	}

	close(release)
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLookups pins GetBatch and Covered semantics: results are
// index-aligned, empty keys resolve to absent, disk entries are
// visible, GetBatch counts one hit per found key and no misses (the Do
// calls that follow own the miss accounting), and Covered counts
// nothing.
func TestBatchLookups(t *testing.T) {
	dir := t.TempDir()
	s, err := newStore(64, dir, 4, osFS{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("mem", []byte("in-memory"))
	// Disk-only entry: an oversized payload bypasses memory.
	big := bytes.Repeat([]byte{5}, 128)
	s.Put("disk", big)
	s.Flush()

	keys := []string{"mem", "", "absent", "disk", "mem"}
	wantOK := []bool{true, false, false, true, true}

	before := s.Counters()
	if got, want := s.Covered(keys), 3; got != want {
		t.Errorf("Covered = %d, want %d", got, want)
	}
	if s.Counters() != before {
		t.Error("Covered changed the counters")
	}

	gb := s.GetBatch(keys)
	for i := range keys {
		if (gb[i] != nil) != wantOK[i] {
			t.Errorf("GetBatch[%d] (%q) present=%v, want %v", i, keys[i], gb[i] != nil, wantOK[i])
		}
	}
	if !bytes.Equal(gb[0], []byte("in-memory")) || !bytes.Equal(gb[3], big) {
		t.Error("GetBatch returned wrong bytes")
	}
	after := s.Counters()
	if after.Hits-before.Hits != 3 {
		t.Errorf("GetBatch hits = %d, want 3", after.Hits-before.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("GetBatch counted misses (%d): the probe must leave misses to Do", after.Misses-before.Misses)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardSingleFlight pins exactly-one-compute-per-key with
// keys spread across every shard and many racing callers per key.
func TestCrossShardSingleFlight(t *testing.T) {
	s, err := newStore(1<<20, "", 8, osFS{})
	if err != nil {
		t.Fatal(err)
	}
	const nkeys, callers = 32, 8
	computes := make([]atomic.Int64, nkeys)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < nkeys; k++ {
		key := fmt.Sprintf("%02d-key-%032d", k, k) // spreads across shards
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k int, key string) {
				defer wg.Done()
				<-start
				data, err := s.Do(key, func() ([]byte, error) {
					computes[k].Add(1)
					time.Sleep(2 * time.Millisecond) // hold the flight open
					return []byte(key), nil
				})
				if err != nil || string(data) != key {
					t.Errorf("Do(%s) = %q, %v", key, data, err)
				}
			}(k, key)
		}
	}
	close(start)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	c := s.Counters()
	if c.Misses != nkeys {
		t.Errorf("misses = %d, want %d", c.Misses, nkeys)
	}
	if c.Joins+c.Hits != nkeys*(callers-1) {
		t.Errorf("joins+hits = %d, want %d", c.Joins+c.Hits, nkeys*(callers-1))
	}
}

// TestShardedStoreHammer drives every public mutation concurrently —
// Do, Get, Put, batch probes, SaveIndex, and a mid-flight Close —
// under -race (via make test-race). It asserts freedom from data
// races and deadlocks, and byte identity on every successful read.
func TestShardedStoreHammer(t *testing.T) {
	dir := t.TempDir()
	s, err := newStore(4<<10, dir, 4, osFS{})
	if err != nil {
		t.Fatal(err)
	}
	s.writer.max = 8 // a short spill queue keeps producers waiting on backpressure
	const nkeys = 64
	keys := make([]string, nkeys)
	want := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("hammer-%03d-%032d", i, i*2654435761)
		want[i] = bytes.Repeat([]byte{byte(i)}, 100+i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(seed int, fn func(i int)) {
		defer wg.Done()
		for i := seed; ; i++ {
			select {
			case <-stop:
				return
			default:
				fn(i % nkeys)
			}
		}
	}
	check := func(i int, data []byte, ok bool) {
		if ok && !bytes.Equal(data, want[i]) {
			t.Errorf("key %d: byte identity violated (%d bytes)", i, len(data))
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go worker(g*7, func(i int) {
			data, err := s.Do(keys[i], func() ([]byte, error) { return want[i], nil })
			if err == nil {
				check(i, data, true)
			}
		})
		go worker(g*13, func(i int) {
			data, ok := s.Get(keys[i])
			check(i, data, ok)
		})
		go worker(g*17, func(i int) { s.Put(keys[i], want[i]) })
	}
	wg.Add(1)
	go worker(1, func(i int) {
		for j, data := range s.GetBatch(keys[:8]) {
			check(j, data, data != nil)
		}
	})
	for i := 0; i < 3; i++ {
		if err := s.SaveIndex(); err != nil {
			t.Errorf("SaveIndex: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Close while the hammer is still running: shutdown must not
	// deadlock against in-flight operations.
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
}
