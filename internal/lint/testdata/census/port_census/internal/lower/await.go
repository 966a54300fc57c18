package lower

func isAwait(op *ir.Op) bool {
	switch op.Name() {
	case accfg.OpAwait:
		return true
	}
	return false
}
