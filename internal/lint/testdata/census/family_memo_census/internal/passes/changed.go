package passes

func changed(pm *ir.PassManager) bool { return len(pm.Changed) > 0 }
