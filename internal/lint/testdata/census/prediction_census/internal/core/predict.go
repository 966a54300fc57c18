package core

func (r *Runner) SetPredictor(p any) {}
