package core

type PassStats struct{}
