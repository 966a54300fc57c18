package difftest

func tails(st core.RunnerStats) int { return st.TailHits }
