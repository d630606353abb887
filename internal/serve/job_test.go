package serve

import "testing"

func TestRequestKeyCanonicalization(t *testing.T) {
	base := Request{Experiment: "figure5", Seed: 1}
	quick := Request{Experiment: "figure5", Seed: 1, Scale: "quick"}
	if base.Key() != quick.Key() {
		t.Error("default scale and explicit quick hash differently")
	}
	full := Request{Experiment: "figure5", Seed: 1, Scale: "full"}
	if base.Key() == full.Key() {
		t.Error("quick and full hash identically")
	}
	otherSeed := Request{Experiment: "figure5", Seed: 2}
	if base.Key() == otherSeed.Key() {
		t.Error("seeds hash identically")
	}
	g1 := Request{Experiment: "figure5", Seed: 1, F: []int{64, 128}}
	g2 := Request{Experiment: "figure5", Seed: 1, F: []int{128, 64}}
	if g1.Key() == g2.Key() {
		t.Error("grid order must be part of the identity (it changes point order)")
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"valid", Request{Experiment: "figure5", Seed: 1}, true},
		{"valid grids", Request{Experiment: "figure5", F: []int{64}, R: []int{8}, L: []int{16}}, true},
		{"missing id", Request{}, false},
		{"unknown id", Request{Experiment: "nope"}, false},
		{"bad scale", Request{Experiment: "figure5", Scale: "huge"}, false},
		{"grid on non-grid experiment", Request{Experiment: "analytic", F: []int{64}}, false},
		{"zero grid value", Request{Experiment: "figure5", L: []int{0}}, false},
		{"huge grid value", Request{Experiment: "figure5", F: []int{5000}}, false},
		{"too many values", Request{Experiment: "figure5", L: make33()}, false},
	}
	for _, tc := range cases {
		err := tc.req.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func make33() []int {
	out := make([]int, 33)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
