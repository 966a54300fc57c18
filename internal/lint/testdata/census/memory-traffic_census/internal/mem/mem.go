package mem

type Memory struct{}
