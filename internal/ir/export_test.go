package ir

// DropUse removes the i-th entry of v's use list and leaves the operand slot
// that entry stood for alone: the one corruption the external tests need and
// no exported method can produce.
func DropUse(v *Value, i int) {
	v.uses = append(v.uses[:i:i], v.uses[i+1:]...)
}
