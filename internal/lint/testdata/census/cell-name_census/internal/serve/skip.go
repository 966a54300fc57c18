package serve

type skip struct{ SkipVerify bool }
