package gpusim

// SetKernelPooling turns kernel-instance pooling on (the default) or
// off for n. Off drops retired instances instead of reusing them: the
// unpooled oracle a pooled run must match.
func SetKernelPooling(n *Node, on bool) {
	n.recycleHook = nil
	if !on {
		n.recycleHook = func(*kernelInstance) bool { return false }
	}
}

// PooledKernels reports how many retired kernel instances n holds for
// reuse.
func PooledKernels(n *Node) int { return len(n.kernFree) }
