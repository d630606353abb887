package trace

// Dropped returns the number of events discarded because the recorder
// was at its limit. A non-zero count means Events, Timeline, and
// Summary describe a truncated prefix of the run.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the recorded events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}
