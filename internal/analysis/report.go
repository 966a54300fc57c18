package analysis

import (
	"fmt"
	"strings"

	"configwall/internal/ir"
)

// ReportString renders the module's flow summary and static bounds as the
// deterministic human-readable report behind `cwopt -analyze`: one stanza
// per function listing, per launch site in program order, the abstract
// configuration it can commit (field values are ⊥/constant/canonical
// symbolic expression/⊤), followed by the function's configuration-traffic
// lower bounds.
func ReportString(m *ir.Module) string {
	sum := Summarize(m)
	var b strings.Builder
	for _, f := range sum.Funcs {
		fmt.Fprintf(&b, "func @%s\n", f.Name)
		for i, l := range f.Launches {
			fmt.Fprintf(&b, "  launch #%d accelerator=%s\n", i, l.Accel)
			if len(l.Fields) == 0 {
				b.WriteString("    (reset state)\n")
			}
			for _, f := range l.Fields {
				fmt.Fprintf(&b, "    %s = %s\n", f.name, f.val)
			}
		}
		fmt.Fprintf(&b, "  bounds: launches >= %d, config instrs >= %d\n",
			f.Bounds.MinLaunches, f.Bounds.MinConfigInstrs)
	}
	return b.String()
}
