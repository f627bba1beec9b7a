package gpusim

// SetPooling turns the pooling of kernel instances, events and
// collectives on (the default) or off for n. Off drops retired objects
// instead of reusing them: the unpooled oracle a pooled run must match.
func SetPooling(n *Node, on bool) {
	n.kernelHook, n.eventHook, n.collHook = nil, nil, nil
	if !on {
		n.kernelHook = func(*kernelInstance) bool { return false }
		n.eventHook = func(*Event) bool { return false }
		n.collHook = func(*Collective) bool { return false }
	}
}

// Pooled reports how many retired kernel instances, events and
// collectives n holds for reuse.
func Pooled(n *Node) (kernels, events, colls int) {
	return len(n.kernFree), len(n.evFree), len(n.collFree)
}
