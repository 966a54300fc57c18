package ir

func statLine() string { return "" }
