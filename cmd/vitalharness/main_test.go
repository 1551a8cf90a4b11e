package main

import (
	"sync"
	"testing"
)

func TestVerdictCollectsConcurrentFailures(t *testing.T) {
	var v verdict
	if err := v.err(); err != nil {
		t.Fatalf("empty verdict: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.failf("worker %d", i)
			_ = v.count()
		}(i)
	}
	wg.Wait()
	if n := v.count(); n != 8 {
		t.Fatalf("count = %d, want 8", n)
	}
	if err := v.err(); err == nil {
		t.Fatal("err() = nil with 8 failures recorded")
	}
}
