package accel

func (p *Port) IsFence(id int) bool { return id == p.Sync }
