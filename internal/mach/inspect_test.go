package mach

// Inspectors the tests read name-space state through; nothing outside
// the tests asks these questions.

// RefCount returns the reference count of the named right (always 1
// for non-unique names), or 0 if the name is unknown.
func (t *Task) RefCount(n Name) int {
	nt := &t.names
	nt.mu.Lock()
	defer nt.mu.Unlock()
	idx := nt.get(n)
	if idx < 0 {
		return 0
	}
	return nt.entries[idx].refs
}

// NameCount returns the number of live names in the task's space.
func (t *Task) NameCount() int {
	t.names.mu.Lock()
	defer t.names.mu.Unlock()
	return t.names.live
}

// count returns the number of nodes.
func (t *splayTree) count() int { return t.size }
