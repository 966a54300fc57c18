package gemmini

func readC(mm *mem.Memory) { _ = mm.Region(0, 64) }
