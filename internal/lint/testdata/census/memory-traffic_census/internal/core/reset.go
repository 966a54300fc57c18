package core

func reset(m *mem.Memory) { m.ResetCounters() }
