package passes

func carried(op *ir.Op, i int) *ir.Value { return op.Operand(3 + i) }
