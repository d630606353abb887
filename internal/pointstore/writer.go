package pointstore

import "sync"

// spillReq is one evicted (or oversized) entry waiting for its
// background disk write.
type spillReq struct {
	sh   *shard
	key  string
	data []byte
}

// spillWriter moves every spill write off the shard locks. Evicting a
// memory entry only appends a request here; the payload stays pinned
// in the pending table — still served by Get/Covered/Do — until the
// background goroutine has durably written it (or the write failed and
// was counted in SpillFails). The queue is bounded: producers that
// create new entries (Put, Do leaders) wait below the cap off-lock,
// while pure readers never block on it.
//
// Lock ordering: a shard lock may be held while taking w.mu (enqueue),
// but w.mu is never held while taking a shard lock — the drain loop
// releases w.mu before writeEntry commits to the shard's disk index.
type spillWriter struct {
	st  *Store
	max int

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string][]byte // evicted bytes pinned until durable
	queue   []spillReq
	writing int // requests popped from queue but not yet finished
	closed  bool
	exited  chan struct{}
}

func newSpillWriter(st *Store, max int) *spillWriter {
	w := &spillWriter{st: st, max: max, pending: make(map[string][]byte), exited: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// enqueue registers an entry for asynchronous spilling. It is called
// with the entry's shard lock held, so it must never block or touch
// the disk: it pins the bytes and signals the drain loop.
func (w *spillWriter) enqueue(sh *shard, key string, data []byte) {
	w.mu.Lock()
	if _, dup := w.pending[key]; !dup {
		w.pending[key] = data
		w.queue = append(w.queue, spillReq{sh: sh, key: key, data: data})
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// pendingGet serves reads for entries evicted from memory whose disk
// write has not landed yet. Without this window the byte-identity
// guarantee would depend on spill latency.
func (w *spillWriter) pendingGet(key string) ([]byte, bool) {
	w.mu.Lock()
	data, ok := w.pending[key]
	w.mu.Unlock()
	return data, ok
}

func (w *spillWriter) pendingCount() int {
	w.mu.Lock()
	n := len(w.queue) + w.writing
	w.mu.Unlock()
	return n
}

// waitCapacity blocks the caller until the backlog is below the cap.
// Called off-lock from entry-creating paths only (Put, Do leaders) —
// never from reads — so a slow disk throttles producers without
// stalling reads.
func (w *spillWriter) waitCapacity() {
	w.mu.Lock()
	for len(w.queue)+w.writing > w.max && !w.closed {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *spillWriter) loop() {
	defer close(w.exited)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			return
		}
		w.drainOne()
	}
}

// drainOne is the drain step: pop the oldest request, write it with
// w.mu released, then unpin it. The caller holds w.mu and has checked
// that the queue is non-empty; drainOne returns with w.mu held.
func (w *spillWriter) drainOne() {
	req := w.queue[0]
	w.queue = w.queue[1:]
	w.writing++
	w.mu.Unlock()

	w.st.writeEntry(req.sh, req.key, req.data)

	w.mu.Lock()
	w.writing--
	delete(w.pending, req.key)
	w.cond.Broadcast()
}

// flush blocks until every queued spill has been attempted. If the
// drain loop has already exited (post-Close misuse, tolerated for the
// benefit of concurrent shutdown), flush drains the queue inline.
func (w *spillWriter) flush() {
	w.mu.Lock()
	for {
		for w.closed && len(w.queue) > 0 {
			w.drainOne()
		}
		if len(w.queue)+w.writing == 0 {
			break
		}
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// stop drains the queue, terminates the drain loop, and waits for it.
func (w *spillWriter) stop() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.exited
	w.flush()
}
