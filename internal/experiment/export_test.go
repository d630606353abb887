package experiment

// NegativeChargeEntry is a sim point entry that is well formed except
// for a negative cycle count.
func NegativeChargeEntry() []byte { return entryWithCharge(-1) }

// EncodeMeasurements is the point codec's encoder, which the golden
// tests hash to pin every field of a report's results.
func EncodeMeasurements(fid Fidelity, ms []Measurement) []byte { return encodeMeasurements(fid, ms) }

// Find returns the measurement for (panel, arch, R, L), or ok=false.
func (r *Report) Find(panel, arch string, rl, lat int) (Measurement, bool) {
	for _, p := range r.Points {
		if p.Panel == panel && p.Arch == arch && p.R == rl && p.L == lat {
			return p, true
		}
	}
	return Measurement{}, false
}
