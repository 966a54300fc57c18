package sim

var machines = sync.Pool{New: func() any { return new(Machine) }}
