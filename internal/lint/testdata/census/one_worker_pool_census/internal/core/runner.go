package core

func ParallelEach(n int, fn func(i int)) {
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for i := range next {
		fn(i)
	}
}
