package network

import "testing"

// BenchmarkSimulate covers both sides of the event-queue choice: a
// sparse P=64 machine at a light rate, and the dense regime the scaling
// experiment reaches at P=512 — rate 0.05 (efficiency 0.6 over R=12),
// ~1.4k pending events and ~50 pops per cycle — where the calendar
// replaced a binary heap.
func BenchmarkSimulate(b *testing.B) {
	for _, c := range []struct {
		name    string
		cfg     Config
		rate    float64
		horizon int64
	}{
		{"sparse-P64", Config{Processors: 64}, 0.01, 20_000},
		{"dense-P512", Config{Processors: 512, HopLatency: 8, ServiceTime: 12}, 0.05, 10_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var reqs int64
			for i := 0; i < b.N; i++ {
				res := Simulate(c.cfg, c.rate, c.horizon, uint64(i+1))
				reqs += res.Requests
			}
			b.ReportMetric(float64(reqs)/b.Elapsed().Seconds()/1e6, "Mreq/s")
		})
	}
}

func BenchmarkFixedPoint(b *testing.B) {
	cfg := Config{Processors: 64}
	for i := 0; i < b.N; i++ {
		FixedPoint(cfg, 32, 8, 6, 10_000, uint64(i+1))
	}
}
