package lower

func names(s accfg.Setup) []string { return s.FieldNames() }
