package workload

import (
	"reflect"
	"sync"
	"testing"
)

// TestPhasesCacheMatchesColdBuild checks the memoized recipe is exactly
// the one a from-scratch compile produces, for every built-in benchmark.
func TestPhasesCacheMatchesColdBuild(t *testing.T) {
	flushCaches()
	for _, s := range Benchmarks() {
		cold := buildPhases(s)
		if got := s.Phases(); !reflect.DeepEqual(got, cold) {
			t.Errorf("%s: cached phases differ from cold build", s.Name)
		}
		// A second lookup must hit the cache and still agree.
		if got := s.Phases(); !reflect.DeepEqual(got, cold) {
			t.Errorf("%s: second cached lookup differs", s.Name)
		}
	}
}

// TestPhasesReturnsPrivateCopy guards the cache against callers that
// mutate the slice Phases hands out.
func TestPhasesReturnsPrivateCopy(t *testing.T) {
	s, err := ByName("SVM ADULT")
	if err != nil {
		t.Fatal(err)
	}
	first := s.Phases()
	first[0].Count = -12345
	first[0].Name = "clobbered"
	second := s.Phases()
	if second[0].Count == -12345 || second[0].Name == "clobbered" {
		t.Fatalf("mutating a returned phase list corrupted the cache")
	}
}

// TestConcurrentStreamsAreIndependent drives many goroutines through
// shared memoized recipes at once — under `go test -race` this is the
// proof the sweep engine's workers can share workload state.
func TestConcurrentStreamsAreIndependent(t *testing.T) {
	flushCaches()
	specs := Benchmarks()
	counts := make([]int64, 16)
	var wg sync.WaitGroup
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, r := range specs[g%len(specs)].Stream().Runs() {
				counts[g] += r.Count
			}
		}(g)
	}
	wg.Wait()
	for g, n := range counts {
		if want := specs[g%len(specs)].Instructions(); n != want {
			t.Errorf("%s: concurrent stream drained %d ops, want %d",
				specs[g%len(specs)].Name, n, want)
		}
	}
}

// Cold vs cached trace generation: the cold path re-probes every macro
// cost through the real compiler; the cached path is a map lookup. The sweep engine depends on this gap staying
// large — hundreds of jobs share six recipes.
func BenchmarkTraceGenerationCold(b *testing.B) {
	s, err := ByName("SVM ADULT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		flushCaches()
		if s.Stream() == nil {
			b.Fatal("nil stream")
		}
	}
}

func BenchmarkTraceGenerationCached(b *testing.B) {
	s, err := ByName("SVM ADULT")
	if err != nil {
		b.Fatal(err)
	}
	flushCaches()
	s.Stream() // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Stream() == nil {
			b.Fatal("nil stream")
		}
	}
}
