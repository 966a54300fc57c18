package core

import "sync"

type Runner struct {
	families *familyMemo
	once     sync.Once
}

func NewRunner() *Runner { return &Runner{families: newFamilyMemo()} }
