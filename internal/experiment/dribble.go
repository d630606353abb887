package experiment

import (
	"regreloc/internal/node"
	"regreloc/internal/policy"
)

func init() {
	dribbled := func(base func(int) node.Config, name string) archSpec {
		return archSpec{name, func(f int) node.Config {
			cfg := base(f)
			cfg.Name = name
			cfg.DribbleUnload = true
			return cfg
		}}
	}
	fixedBase := func(f int) node.Config { return node.FixedConfig(f, policy.TwoPhase{}, 8) }
	flexBase := func(f int) node.Config { return node.FlexibleConfig(f, policy.TwoPhase{}, 8) }
	register((&gridSweep{
		id:    "ablation-dribble",
		title: "Section 3.4 extension: dribbling registers",
		description: "The dribble-back registers idea the paper notes the APRIL " +
			"designers exploring: blocked contexts drain their registers in the " +
			"background, so unloads cost only the blocking overhead. Run on the " +
			"Figure 6(a) churn regime (F=64) for all four combinations — the " +
			"paper calls the idea 'completely orthogonal to the register " +
			"relocation mechanism'.",
		notes: []string{
			"Dribbling removes the C-cycle unload from the critical path,",
			"helping both architectures; register relocation keeps its",
			"relative advantage (orthogonality).",
		},
		f: []int{64}, r: []int{32}, l: syncLs,
		archs: []archSpec{
			{"fixed", fixedBase},
			{"flexible", flexBase},
			dribbled(fixedBase, "fixed-dribble"),
			dribbled(flexBase, "flexible-dribble"),
		},
		spec: syncFaultSpec,
	}).fixed())
}
