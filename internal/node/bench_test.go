package node

import (
	"testing"

	"regreloc/internal/policy"
	"regreloc/internal/workload"
)

// benchRun reports the simulated cycle rate and the cost of one
// simulated fault, the unit of work the simulator's hot path repeats.
func benchRun(b *testing.B, cfg Config, spec workload.Spec) {
	var cycles, faults int64
	for i := 0; i < b.N; i++ {
		res := Run(cfg, spec, uint64(i+1))
		cycles += res.Full.Total()
		faults += res.Faults
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(faults), "ns/fault")
}

func BenchmarkRunCacheFaults(b *testing.B) {
	benchRun(b, FlexibleConfig(128, policy.Never{}, 6),
		workload.CacheFaults(32, 256, workload.PaperCtxSize(), 32, 8000))
}

func BenchmarkRunSyncFaults(b *testing.B) {
	benchRun(b, FlexibleConfig(128, policy.TwoPhase{}, 8),
		workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 8000))
}

func BenchmarkRunChurnRegime(b *testing.B) {
	benchRun(b, FlexibleConfig(64, policy.TwoPhase{}, 8),
		workload.SyncFaults(32, 2048, workload.PaperCtxSize(), 32, 4000))
}

// BenchmarkRunCombined runs one full-scale cell of the combined
// experiment (cache faults at R=32, L=64 superposed on synchronization
// faults at R=512, L=256; F=128, 64 threads of 400 run lengths each),
// the one workload whose latency is a Mixture.
func BenchmarkRunCombined(b *testing.B) {
	spec := workload.Combined(32, 64, 512, 256, workload.PaperCtxSize(), 64, 400*512)
	for _, cfg := range []Config{
		FixedConfig(128, policy.TwoPhase{}, 8),
		FlexibleConfig(128, policy.TwoPhase{}, 8),
	} {
		b.Run(cfg.Name, func(b *testing.B) { benchRun(b, cfg, spec) })
	}
}
