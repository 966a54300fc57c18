package codegen

func arity(op *ir.Op) int { return len(op.Operands()) }
