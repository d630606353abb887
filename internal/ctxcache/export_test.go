package ctxcache

// Resident returns how many bindings of the given thread are resident.
func (c *Cache) Resident(thread int) int {
	n := 0
	for p := 0; p < c.size; p++ {
		if c.valid[p] && c.names[p].thread == thread {
			n++
		}
	}
	return n
}
