package experiment

// NegativeChargeEntry is a sim point entry that is well formed except
// for a negative cycle count.
func NegativeChargeEntry() []byte { return entryWithCharge(-1) }
