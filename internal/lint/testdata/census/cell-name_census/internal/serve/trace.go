package serve

func trace(o *core.RunOptions) { o.RecordTrace = true }
