package accel

// Hits returns how many launches found their B tile already widened.
func (k *MAC) Hits() int { return k.hits }

// LaunchMemoBudget is the bytes a LaunchMemo may keep.
const LaunchMemoBudget = launchMemoBudget

// Bytes returns what the memo keeps, as charged to its budget.
func (m *LaunchMemo) Bytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}
