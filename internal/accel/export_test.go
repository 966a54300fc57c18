package accel

// Hits returns how many launches found their B tile already widened.
func (k *MAC) Hits() int { return k.hits }
