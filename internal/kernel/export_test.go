package kernel

// Resident returns the currently resident threads in admit order.
func (mgr *Manager) Resident() []*ManagedThread { return mgr.resident }

// Finished returns how many threads have completed.
func (mgr *Manager) Finished() int { return mgr.finished }

// Finished reports whether the thread completed.
func (t *ManagedThread) Finished() bool { return t.finished }
