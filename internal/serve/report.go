package serve

import (
	"encoding/json"
	"fmt"

	"regreloc/internal/experiment"
)

// This file defines the canonical JSON encoding of a report. The
// encoding is deterministic — fixed field order, no maps, no
// pointers to unexported state — so the engine's byte-identical
// determinism survives serialization and the content-addressed cache
// can compare results byte for byte.

// wirePoint is one measurement cell on the wire.
type wirePoint struct {
	Panel string  `json:"panel"`
	Arch  string  `json:"arch"`
	R     int     `json:"r"`
	L     int     `json:"l"`
	F     int     `json:"f"`
	Eff   float64 `json:"eff"`

	Completed     int     `json:"completed"`
	AvgResident   float64 `json:"avg_resident"`
	MaxResident   int     `json:"max_resident"`
	AvgWastedRegs float64 `json:"avg_wasted_regs"`
	Allocs        int64   `json:"allocs"`
	AllocFails    int64   `json:"alloc_fails"`
	Deallocs      int64   `json:"deallocs"`
	Loads         int64   `json:"loads"`
	Unloads       int64   `json:"unloads"`
	Faults        int64   `json:"faults"`
	Probes        int64   `json:"probes"`
}

// wireReport is the canonical report body kept in the result store and
// returned in job results.
type wireReport struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Notes  []string    `json:"notes,omitempty"`
	Points []wirePoint `json:"points"`
}

// encodeReport serializes a complete report canonically. Reports with
// a non-nil Err are not encodable: partial results must never enter
// the result store.
func encodeReport(r *experiment.Report) ([]byte, error) {
	if r.Err != nil {
		return nil, fmt.Errorf("refusing to encode partial report: %w", r.Err)
	}
	w := wireReport{ID: r.ID, Title: r.Title, Notes: r.Notes}
	w.Points = make([]wirePoint, 0, len(r.Points))
	for _, p := range r.Points {
		w.Points = append(w.Points, wirePoint{
			Panel: p.Panel, Arch: p.Arch, R: p.R, L: p.L, F: p.F, Eff: p.Eff,
			Completed:     p.Res.Completed,
			AvgResident:   p.Res.AvgResident,
			MaxResident:   p.Res.MaxResident,
			AvgWastedRegs: p.Res.AvgWastedRegs,
			Allocs:        p.Res.Allocs,
			AllocFails:    p.Res.AllocFails,
			Deallocs:      p.Res.Deallocs,
			Loads:         p.Res.Loads,
			Unloads:       p.Res.Unloads,
			Faults:        p.Res.Faults,
			Probes:        p.Res.Probes,
		})
	}
	return json.Marshal(w)
}
