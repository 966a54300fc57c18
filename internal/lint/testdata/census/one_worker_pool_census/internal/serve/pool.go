package serve

var wg sync.WaitGroup
