package rng

// MemoTables returns the number of tables the shared guide memo holds.
func MemoTables() int {
	guides.mu.Lock()
	defer guides.mu.Unlock()
	return len(guides.tables)
}
