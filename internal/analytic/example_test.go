package analytic_test

import (
	"fmt"

	"regreloc/internal/analytic"
)

// The Section 3.4 model: a register file holding more contexts
// tolerates the same latency at higher utilization — until both
// architectures saturate.
func Example() {
	p := analytic.NewParams(32, 512, 8)
	fixed := analytic.ResidentContexts(128, 32)    // 4 fixed contexts
	flexible := analytic.ResidentContexts(128, 16) // 8 flexible contexts
	fmt.Printf("N* = %.1f contexts to saturate\n", p.SaturationPoint())
	fmt.Printf("fixed:    E(%g) = %.2f\n", fixed, p.Efficiency(fixed))
	fmt.Printf("flexible: E(%g) = %.2f\n", flexible, p.Efficiency(flexible))
	fmt.Printf("speedup:  %.1fx\n", p.Efficiency(flexible)/p.Efficiency(fixed))
	// Output:
	// N* = 13.8 contexts to saturate
	// fixed:    E(4) = 0.23
	// flexible: E(8) = 0.46
	// speedup:  2.0x
}
