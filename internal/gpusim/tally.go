package gpusim

// Tally is a node's cumulative work: the kernel and collective ids it
// has handed out and every device's own DeviceStats. A device folded
// into a representative keeps zero stats of its own (Stats reports the
// representative's).
type Tally struct {
	Kernels, Collectives int
	Devices              []DeviceStats
}

// ReadTally writes the node's tally into t, reusing t.Devices. It reads
// the counters as they stand: busy time since the last change of a
// device's running set is not folded in, so read it on a drained node.
func (n *Node) ReadTally(t *Tally) {
	n.touch()
	t.Kernels, t.Collectives = n.nextKernelID, n.nextCollID
	t.Devices = t.Devices[:0]
	for _, d := range n.devices {
		t.Devices = append(t.Devices, d.stats)
	}
}

// Work is what a node did between two tallies, stored compactly: only
// the devices whose stats moved, the set bits of Mask, keep an entry in
// Devices, in id order. It holds at most 64 devices.
type Work struct {
	Kernels, Collectives int
	Mask                 uint64
	Devices              []DeviceStats
}

// AddWork adds w to the node's counters as if the node had done it: the
// kernel and collective ids it took and every device's stats. Iteration
// replay calls it on a drained node in place of the simulation w stands
// for.
func (n *Node) AddWork(w Work) {
	n.touch()
	n.nextKernelID += w.Kernels
	n.nextCollID += w.Collectives
	j := 0
	for i, d := range n.devices {
		if w.Mask&(1<<i) != 0 {
			d.stats = d.stats.Add(w.Devices[j])
			j++
		}
	}
}
