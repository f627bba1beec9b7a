package gpusim

// EventCounters classifies every event the node schedules on its engine
// by subsystem — the queue-occupancy decomposition ligerprof
// -engine-stats reports next to the raw engine counters.
type EventCounters struct {
	// Stream counts command deliveries (launch/record/wait reaching the
	// device).
	Stream uint64 `json:"stream"`
	// Device counts kernel completion (re-)arms.
	Device uint64 `json:"device"`
	// Collective counts collective completion re-arms and watchdog arms.
	Collective uint64 `json:"collective"`
	// Host counts host-side events: completion notifications reaching
	// event observers and host-barrier callbacks.
	Host uint64 `json:"host"`
}

// Total sums all classes.
func (c EventCounters) Total() uint64 {
	return c.Stream + c.Device + c.Collective + c.Host
}

// EventCounters returns the per-subsystem scheduling counters.
func (n *Node) EventCounters() EventCounters {
	n.touch()
	return n.evCounts
}
