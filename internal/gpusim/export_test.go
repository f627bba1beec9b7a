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

// SetFolding turns folding on n on (the default) or off. Off keeps every
// device simulated on its own: the unfolded oracle a folded run must
// match. It must be called before the first Fold.
func SetFolding(n *Node, on bool) { n.noFold = !on }

// TraceFoldedLead installs tr on n, a node that folds leads, past
// SetTracer's refusal: a test compares every record of such a run but
// the dependency records with the unfolded run's.
func TraceFoldedLead(n *Node, tr Tracer) {
	n.tape = &tape{inner: tr}
	n.tracer = n.tape
}
