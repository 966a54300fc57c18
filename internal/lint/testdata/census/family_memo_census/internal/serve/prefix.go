package serve

var shared = ir.SharedPrefix(nil, nil)
