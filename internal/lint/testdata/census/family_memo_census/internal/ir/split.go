package ir

func (pm *PassManager) Split(at int) (*PassManager, *PassManager) { return pm, pm }
