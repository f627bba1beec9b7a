package gpusim

import "math/bits"

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
// Devices, in id order.
type Work struct {
	Kernels, Collectives int
	Mask                 uint64
	Devices              []DeviceStats
}

// Since returns the work done between the tally earlier and t. It
// reports false for a node of more than 64 devices, which Work cannot
// hold.
func (t Tally) Since(earlier Tally) (Work, bool) {
	w := Work{Kernels: t.Kernels - earlier.Kernels, Collectives: t.Collectives - earlier.Collectives}
	if len(t.Devices) > 64 {
		return w, false
	}
	for i, d := range t.Devices {
		if d != earlier.Devices[i] {
			w.Mask |= 1 << i
		}
	}
	w.Devices = make([]DeviceStats, 0, bits.OnesCount64(w.Mask))
	for i, d := range t.Devices {
		if e := earlier.Devices[i]; d != e {
			w.Devices = append(w.Devices, DeviceStats{ComputeBusy: d.ComputeBusy - e.ComputeBusy,
				CommBusy: d.CommBusy - e.CommBusy, OverlapBusy: d.OverlapBusy - e.OverlapBusy,
				KernelsRun: d.KernelsRun - e.KernelsRun})
		}
	}
	return w, true
}

// AddWork adds w to the node's counters as if the node had done it: the
// kernel and collective ids it took and every device's stats. Iteration
// replay calls it on a drained node in place of the simulation w was
// read from.
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
