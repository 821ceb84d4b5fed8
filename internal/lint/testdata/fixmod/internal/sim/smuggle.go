package sim

// RunPartitions tries to smuggle worker goroutines into the kernel
// itself: host concurrency belongs in internal/runner, so sim-core
// fails.
func RunPartitions(parts []func()) {
	done := make(chan struct{}, len(parts))
	for _, p := range parts {
		p := p
		go func() { // want `goroutine spawned in sim-core`
			p()
			done <- struct{}{}
		}()
	}
	for range parts {
		<-done
	}
}
