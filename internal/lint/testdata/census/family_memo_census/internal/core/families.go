package core

func (r *Runner) families2() *familyMemo { return r.families }
