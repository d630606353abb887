package rng

import (
	"fmt"
	"testing"
)

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	if sink == 1 {
		b.Fatal("impossible")
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(32)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// benchSampler draws from d through a Sampler, one sub-benchmark per
// mean: the guide table's size and hit rate both depend on the mean.
func benchSampler(b *testing.B, means []float64, dist func(mean float64) Dist) {
	for _, mean := range means {
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			r := New(1)
			s := NewSampler(dist(mean))
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += s.Sample(r)
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

func BenchmarkGeometricSampler(b *testing.B) {
	benchSampler(b, []float64{8, 32, 128, 512}, func(mean float64) Dist { return Geometric{MeanValue: mean} })
}

func BenchmarkExponentialSampler(b *testing.B) {
	benchSampler(b, []float64{64, 1024}, func(mean float64) Dist { return Exponential{MeanValue: mean} })
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.Intn(3)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += r.Exponential(512)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
