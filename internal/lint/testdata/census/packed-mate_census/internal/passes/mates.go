package passes

func mates(port *accel.Port) []string { return port.Mates("x") }
