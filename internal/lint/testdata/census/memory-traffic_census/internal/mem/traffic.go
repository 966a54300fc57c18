package mem

func (m *Memory) BytesRead() int { return 0 }
