package core

func RunWithRetry() {}
