package difftest

var runner = core.NewRunner(1)
