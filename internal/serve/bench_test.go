package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// BenchmarkSubmitFullTable times report-hit submissions against a job
// table held at its MaxJobs cap, so every submission prunes one
// finished job and adds one. Admission should cost the same at any
// table size.
func BenchmarkSubmitFullTable(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			cfg := testConfig()
			cfg.MaxJobs = n
			cfg.JobRetention = time.Hour // only the cap prunes
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			req := tinyRequest()
			s.points.Put(req.Key(), []byte(`{"id":"figure5","title":"","points":[]}`))
			submit := func() {
				if _, status, err := s.Submit(req); err != nil || status != http.StatusOK {
					b.Fatalf("submit: status=%d err=%v, want a report hit", status, err)
				}
			}
			for i := 0; i < n; i++ {
				submit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
		})
	}
}
