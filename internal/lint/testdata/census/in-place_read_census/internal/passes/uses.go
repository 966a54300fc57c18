package passes

func firstUser(v *ir.Value) *ir.Op { return v.Uses()[0].Op }
