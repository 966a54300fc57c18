package difftest

var checks sync.Pool
