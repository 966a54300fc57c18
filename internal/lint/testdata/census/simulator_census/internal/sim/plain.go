package sim

func execPlain() {}
