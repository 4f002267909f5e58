package obs

// Events returns the recorded spans and instants in recording order.
func (r *Recorder) Events() []Event { return r.events }

// Dropped reports how many events the per-recorder cap discarded.
func (r *Recorder) Dropped() uint64 { return r.dropped }
