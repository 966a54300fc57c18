package serve

func logPasses(pm *ir.PassManager) { pm.Log(nil) }
