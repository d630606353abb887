package pointstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutRoundTrip(t *testing.T) {
	s, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("k", []byte("value"))
	data, ok := s.Get("k")
	if !ok || string(data) != "value" {
		t.Fatalf("Get = %q, %v", data, ok)
	}
	// The absent lookup is not a miss: misses count computations.
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 0 {
		t.Errorf("counters = %+v, want 1 hit / 0 misses", c)
	}
	if !s.Contains("k") || s.Contains("other") {
		t.Error("Contains disagrees with contents")
	}
}

// TestDoCoalescesConcurrentComputes pins the cross-job guarantee:
// many concurrent Do calls for one key run compute exactly once, the
// rest join the in-flight execution and share its bytes. Run under
// -race via make test-race.
func TestDoCoalescesConcurrentComputes(t *testing.T) {
	s, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	release := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		data, err := s.Do("k", func() ([]byte, error) {
			computes.Add(1)
			<-release // hold the flight open until the joiners arrive
			return []byte("shared"), nil
		})
		if err != nil || string(data) != "shared" {
			t.Errorf("leader Do = %q, %v", data, err)
		}
	}()

	// Wait for the leader to be inside compute (flight registered and
	// held open) before launching the joiners, so none of them can win
	// the leadership instead.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	const joiners = 8
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := s.Do("k", func() ([]byte, error) {
				computes.Add(1)
				return []byte("shared"), nil
			})
			if err != nil || string(data) != "shared" {
				t.Errorf("joiner Do = %q, %v", data, err)
			}
		}()
	}

	// Wait until every joiner has attached to the flight, then let the
	// leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.Counters().Joins < joiners {
		if time.Now().After(deadline) {
			t.Fatalf("joins = %d after 10s, want %d", s.Counters().Joins, joiners)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-leaderDone
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	c := s.Counters()
	if c.Misses != 1 || c.Joins != joiners {
		t.Errorf("counters = %+v, want 1 miss / %d joins", c, joiners)
	}
	// After the flight completes the entry is stored: later Do calls
	// hit without computing.
	if _, err := s.Do("k", func() ([]byte, error) {
		computes.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("post-flight Do recomputed (%d computes)", n)
	}
}

func TestDoErrorNotStored(t *testing.T) {
	s, _ := New(1<<20, "")
	wantErr := fmt.Errorf("boom")
	if _, err := s.Do("k", func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if s.Contains("k") {
		t.Fatal("failed computation was stored")
	}
	var ran bool
	if _, err := s.Do("k", func() ([]byte, error) { ran = true; return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("retry after error did not recompute")
	}
}

func TestEvictionSpillsToDiskAndReloads(t *testing.T) {
	dir := t.TempDir()
	// One shard so the tiny budget deterministically forces eviction
	// (the default shard count splits the budget per shard).
	s, err := NewWith(64, dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 48) }
	s.Put("a", payload(1))
	s.Put("b", payload(2)) // evicts a; spill is async
	s.Flush()              // wait for the background spill to land
	if c := s.Counters(); c.Evictions == 0 || c.SpillBytes == 0 {
		t.Fatalf("eviction not accounted: %+v", c)
	}
	if data, ok := s.Get("a"); !ok || !bytes.Equal(data, payload(1)) {
		t.Fatal("evicted entry not readable from disk")
	}

	// Persist and reload: the disk tier survives a restart. Close
	// first — the dir's advisory lock admits one store at a time.
	if err := s.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if data, ok := s2.Get(k); !ok || len(data) != 48 {
			t.Fatalf("reloaded store missing %q", k)
		}
	}
}

func TestCorruptDiskEntryDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(0, dir) // no memory tier: everything on disk
	s.Put("k", []byte("payload"))
	s.Flush() // spill is async; land it before tampering
	if err := os.WriteFile(filepath.Join(dir, "k.bin"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry served")
	}
	if c := s.Counters(); c.VerifyFails != 1 {
		t.Errorf("verify failures = %d, want 1", c.VerifyFails)
	}
	if s.Contains("k") {
		t.Error("corrupt entry still indexed")
	}
}

// TestBadIndexStartsCold: an index that is corrupt, or well-formed
// but written under another format version, is discarded wholesale.
// Serving an old version's entries as current would be staleness the
// checksums cannot catch.
func TestBadIndexStartsCold(t *testing.T) {
	data := []byte("old-format result")
	oldVersion, err := json.Marshal(storeIndex{Version: indexVersion - 1, Entries: map[string]diskEntry{
		"k": {Size: int64(len(data)), Sum: checksum(data)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, index := range map[string][]byte{
		"corrupt":       []byte("not json"),
		"other version": oldVersion,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, indexName), index, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "k.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(1<<20, dir)
		if err != nil {
			t.Fatalf("%s index should not be fatal: %v", name, err)
		}
		if s.DiskLen() != 0 {
			t.Errorf("%s index was loaded", name)
		}
		if _, ok := s.Get("k"); ok {
			t.Errorf("entry from a %s index served", name)
		}
		s.Close()
	}
}

// TestClockSparesReferencedEntry pins the CLOCK insert policy: new
// entries start unreferenced, so only a hit earns the second chance.
// A stream of write-once entries (finished reports) must not push out
// an entry that is being read (a hot sweep point).
func TestClockSparesReferencedEntry(t *testing.T) {
	s, err := NewWith(30, "", Options{Shards: 1}) // room for three entries
	if err != nil {
		t.Fatal(err)
	}
	entry := func(c byte) []byte { return bytes.Repeat([]byte{c}, 10) }
	s.Put("a", entry('a'))
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing right after Put")
	}
	s.Put("b", entry('b'))
	s.Put("c", entry('c'))
	s.Put("d", entry('d')) // over budget: one entry must go
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if s.Contains("b") {
		t.Error("b (never read) survived; the eviction took another entry")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !s.Contains(k) {
			t.Errorf("%s evicted; want b, the oldest unreferenced entry", k)
		}
	}
}

func TestOversizedEntryBypassesMemory(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(16, dir)
	s.Put("big", bytes.Repeat([]byte{7}, 128))
	s.Flush()
	if s.Len() != 0 || s.DiskLen() != 1 {
		t.Fatalf("mem=%d disk=%d, want 0/1", s.Len(), s.DiskLen())
	}
	if data, ok := s.Get("big"); !ok || len(data) != 128 {
		t.Fatal("oversized entry unreadable")
	}
}

// TestSpillFailureCountedAndReported is the regression test for the
// silent-spill-loss bug: with the spill directory gone, an eviction's
// disk write fails, the entry vanishes from both tiers — and before
// the fix nothing recorded it. Now the failure increments SpillFails,
// logs once, and SaveIndex reports the loss instead of success.
func TestSpillFailureCountedAndReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := NewWith(16, dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logged atomic.Int64
	s.SetLogf(func(format string, args ...any) { logged.Add(1) })
	// Remove the directory out from under the store so every spill
	// (eviction or SaveIndex flush) fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	s.Put("a", bytes.Repeat([]byte("x"), 12))
	s.Put("b", bytes.Repeat([]byte("y"), 12)) // evicts "a"; spill fails
	s.Flush()                                 // land the async spill attempt

	c := s.Counters()
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if c.SpillFails != 1 {
		t.Errorf("SpillFails = %d, want 1 (evicted entry lost to a failed write)", c.SpillFails)
	}
	if logged.Load() != 1 {
		t.Errorf("logged %d spill warnings, want exactly 1 (first failure only)", logged.Load())
	}
	if s.Contains("a") {
		t.Error("store still claims the lost entry")
	}

	// SaveIndex flushes the memory tier; those spills fail too, and the
	// error must surface rather than reporting a complete index.
	if err := s.SaveIndex(); err == nil {
		t.Error("SaveIndex = nil, want spill failure surfaced")
	}
	if got := s.Counters().SpillFails; got < 2 {
		t.Errorf("SpillFails after SaveIndex = %d, want >= 2", got)
	}
	if logged.Load() != 1 {
		t.Errorf("logged %d warnings after SaveIndex, want still 1", logged.Load())
	}
}

// TestEngineVersionQualifiesUnstampedBuilds is the regression test for
// the stale-cache hazard: every non-VCS-stamped build used to report
// the same version string ("unknown" or "(devel)"), so a recompiled
// dev binary with changed engine semantics would decode a previous
// binary's persisted entries. The version must now be qualified by the
// executable's content hash whenever the stamp alone does not identify
// the code.
func TestEngineVersionQualifiesUnstampedBuilds(t *testing.T) {
	sum := func() (string, error) { return "deadbeefcafe0123", nil }
	cases := []struct {
		name string
		bi   *debug.BuildInfo
		want string
	}{
		{"no build info", nil, "unknown+exe:deadbeefcafe0123"},
		{"devel build", biWith("(devel)", "", false), "(devel)+exe:deadbeefcafe0123"},
		{"empty version", biWith("", "", false), "unknown+exe:deadbeefcafe0123"},
		{"clean stamped", biWith("v1.2.0", "abc123", false), "v1.2.0+abc123"},
		{"dirty stamped", biWith("(devel)", "abc123", true), "(devel)+abc123+exe:deadbeefcafe0123"},
	}
	for _, tc := range cases {
		if got := engineVersion(tc.bi, sum); got != tc.want {
			t.Errorf("%s: engineVersion = %q, want %q", tc.name, got, tc.want)
		}
	}

	// An unreadable executable must still never alias another binary's
	// entries: the fallback is per-process, i.e. unstable on purpose.
	failSum := func() (string, error) { return "", fmt.Errorf("no exe") }
	v1 := engineVersion(biWith("(devel)", "", false), failSum)
	if v1 == "(devel)" || v1 == "unknown" {
		t.Errorf("unreadable-exe fallback %q is a bare dev version", v1)
	}

	// The live version (a test binary: devel, unstamped) must carry the
	// exe qualifier — this is the assertion that fails on pre-fix code,
	// where EngineVersion() returned bare "(devel)"/"unknown".
	if live := EngineVersion(); !strings.Contains(live, "+exe:") {
		t.Errorf("EngineVersion() = %q, want an +exe: qualifier on this unstamped test build", live)
	}
}

func biWith(version, rev string, modified bool) *debug.BuildInfo {
	bi := &debug.BuildInfo{}
	bi.Main.Version = version
	if rev != "" {
		bi.Settings = append(bi.Settings, debug.BuildSetting{Key: "vcs.revision", Value: rev})
	}
	if modified {
		bi.Settings = append(bi.Settings, debug.BuildSetting{Key: "vcs.modified", Value: "true"})
	}
	return bi
}

// TestDirLockRejectsSecondOpener is the regression test for the
// two-processes-one-dir clobbering bug: the disk tier assumes a single
// writer, so a second Store opening a held dir must be refused with an
// error naming the dir — not admitted to silently overwrite
// points.json. Close releases the claim.
func TestDirLockRejectsSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(1<<20, dir); err == nil {
		t.Fatal("second store opened a locked dir")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("lock error should name the contested dir, got: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Released: the dir is claimable again, and Close is idempotent.
	s2, err := New(1<<20, dir)
	if err != nil {
		t.Fatalf("dir not claimable after Close: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Memory-only stores take no lock: any number may coexist.
func TestMemoryOnlyStoresUnlocked(t *testing.T) {
	a, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
