package experiment

// NegativeChargeEntry is a sim point entry that is well formed except
// for a negative cycle count.
func NegativeChargeEntry() []byte { return entryWithCharge(-1) }

// EncodeMeasurements is the point codec's encoder, which the golden
// tests hash to pin every field of a report's results.
func EncodeMeasurements(fid Fidelity, ms []Measurement) []byte { return encodeMeasurements(fid, ms) }
