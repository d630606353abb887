package workload

import (
	"math"
	"testing"

	"regreloc/internal/rng"
)

func TestGenerateReproducible(t *testing.T) {
	spec := CacheFaults(32, 128, PaperCtxSize(), 50, 10000)
	a := spec.GenerateInto(rng.New(7), nil)
	b := spec.GenerateInto(rng.New(7), nil)
	for i := range a {
		if a[i].Regs != b[i].Regs || a[i].WorkLeft != b[i].WorkLeft {
			t.Fatalf("thread %d differs between identical seeds", i)
		}
	}
}

func TestGenerateDistribution(t *testing.T) {
	spec := CacheFaults(32, 128, PaperCtxSize(), 2000, 10000)
	ths := spec.GenerateInto(rng.New(3), nil)
	if len(ths) != 2000 {
		t.Fatalf("population = %d", len(ths))
	}
	sum := 0.0
	for _, th := range ths {
		if th.Regs < 6 || th.Regs > 24 {
			t.Fatalf("C = %d outside [6,24]", th.Regs)
		}
		sum += float64(th.Regs)
	}
	if mean := sum / 2000; math.Abs(mean-15) > 0.5 {
		t.Errorf("mean C = %g want ~15", mean)
	}
	if TotalWork(ths) != 2000*10000 {
		t.Errorf("total work = %d", TotalWork(ths))
	}
}

func TestValidate(t *testing.T) {
	good := SyncFaults(128, 1024, rng.Constant{Value: 8}, 10, 1000)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{},
		{RunLen: rng.Constant{Value: 1}},
		{RunLen: rng.Constant{Value: 1}, Latency: rng.Constant{Value: 1}},
		{RunLen: rng.Constant{Value: 1}, Latency: rng.Constant{Value: 1}, CtxSize: rng.Constant{Value: 8}},
		{RunLen: rng.Constant{Value: 1}, Latency: rng.Constant{Value: 1}, CtxSize: rng.Constant{Value: 8}, Work: rng.Constant{Value: 1}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Spec{}.GenerateInto(rng.New(1), nil)
}

func TestCacheFaultsDistributions(t *testing.T) {
	spec := CacheFaults(32, 128, PaperCtxSize(), 10, 1000)
	if _, ok := spec.RunLen.(rng.Geometric); !ok {
		t.Error("cache run lengths must be geometric")
	}
	if _, ok := spec.Latency.(rng.Constant); !ok {
		t.Error("cache latency must be constant")
	}
	if spec.RunLen.Mean() != 32 || spec.Latency.Mean() != 128 {
		t.Error("means wrong")
	}
}

func TestSyncFaultsDistributions(t *testing.T) {
	spec := SyncFaults(128, 1024, PaperCtxSize(), 10, 1000)
	if _, ok := spec.Latency.(rng.Exponential); !ok {
		t.Error("sync latency must be exponential")
	}
	if spec.Latency.Mean() != 1024 {
		t.Error("latency mean wrong")
	}
}

func TestCombinedFaultRate(t *testing.T) {
	// Superposing two fault processes adds their rates: Rc=32, Rs=128
	// give a combined mean run length of 1/(1/32+1/128) = 25.6.
	spec := Combined(32, 100, 128, 1000, rng.Constant{Value: 8}, 10, 1000)
	if got := spec.RunLen.Mean(); math.Abs(got-25.6) > 0.01 {
		t.Errorf("combined run length mean = %g want 25.6", got)
	}
	// The latency mixture mean: p = (1/32)/(1/32+1/128) = 0.8 cache.
	wantMean := 0.8*100 + 0.2*1000
	if got := spec.Latency.Mean(); math.Abs(got-wantMean) > 0.01 {
		t.Errorf("mixture mean = %g want %g", got, wantMean)
	}
}

func TestMixtureSamples(t *testing.T) {
	spec := Combined(32, 100, 128, 1000, rng.Constant{Value: 8}, 10, 1000)
	src := rng.New(5)
	sum := 0.0
	const n = 100000
	sawConst := false
	for i := 0; i < n; i++ {
		v := spec.Latency.Sample(src)
		if v == 100 {
			sawConst = true
		}
		sum += float64(v)
	}
	if !sawConst {
		t.Error("mixture never produced the cache-latency component")
	}
	if mean := sum / n; math.Abs(mean-spec.Latency.Mean())/spec.Latency.Mean() > 0.05 {
		t.Errorf("sampled mixture mean %g want %g", mean, spec.Latency.Mean())
	}
	if spec.Latency.String() == "" {
		t.Error("mixture has no description")
	}
}

func TestPaperCtxSize(t *testing.T) {
	d := PaperCtxSize()
	if d.Mean() != 15 {
		t.Errorf("paper C mean = %g", d.Mean())
	}
}
