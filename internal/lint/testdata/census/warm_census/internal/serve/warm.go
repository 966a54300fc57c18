package serve

func warm(r *core.Runner) { r.Preload(nil) }
