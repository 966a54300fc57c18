package serve

func tail(m *memo) { m.tail(nil) }
