package core

func mate(s accfg.Setup) { analysis.PackedMate(nil, s, "y") }
