package core

var second = newFamilyMemo()
