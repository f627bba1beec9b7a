package gpusim

import (
	"fmt"
)

// Device memory accounting. The simulator tracks a byte pool per
// device: runtimes allocate the model weights once at construction and
// an activation workspace per in-flight batch, so over-admission
// surfaces as allocation failure (the backpressure a real serving
// system gets from cudaMalloc) instead of silently ignoring capacity.

// MemCapacity returns the device's total memory in bytes.
func (d *Device) MemCapacity() int64 { return d.memCapacity }

// MemUsed returns currently allocated bytes.
func (d *Device) MemUsed() int64 {
	d.node.touch()
	return d.memUsed
}

// MemFree returns unallocated bytes.
func (d *Device) MemFree() int64 {
	d.node.touch()
	return d.memCapacity - d.memUsed
}

// Alloc reserves bytes of device memory. Like SetSpeed, it is a
// per-device change: called before the run it keeps the node unfolded,
// and it panics on a folded device (use Node.AllocAll).
func (d *Device) Alloc(bytes int64) error {
	d.node.touch()
	d.diverge("Alloc")
	return d.alloc(bytes)
}

func (d *Device) alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpusim: negative allocation %d on device %d", bytes, d.id)
	}
	if d.memUsed+bytes > d.memCapacity {
		return fmt.Errorf("gpusim: device %d out of memory: %d requested, %d free of %d",
			d.id, bytes, d.MemFree(), d.memCapacity)
	}
	d.memUsed += bytes
	return nil
}

// Free releases bytes of device memory. Over-freeing panics: it always
// indicates a runtime accounting bug. Like Alloc, it is a per-device
// change (use Node.FreeAll on a folded node).
func (d *Device) Free(bytes int64) {
	d.node.touch()
	d.diverge("Free")
	d.free(bytes)
}

func (d *Device) free(bytes int64) {
	if bytes < 0 || bytes > d.memUsed {
		panic(fmt.Sprintf("gpusim: device %d freeing %d of %d used", d.id, bytes, d.memUsed))
	}
	d.memUsed -= bytes
}

// AllocAll reserves the same amount on every surviving device of the
// node, rolling back on partial failure. Permanently failed devices
// are skipped: their memory left the pool with them.
func (n *Node) AllocAll(bytes int64) error {
	n.touch()
	for i, d := range n.devices {
		if d.failed {
			continue
		}
		if err := d.alloc(bytes); err != nil {
			for j := 0; j < i; j++ {
				if !n.devices[j].failed {
					n.devices[j].free(bytes)
				}
			}
			return err
		}
	}
	return nil
}

// FreeAll releases the same amount on every surviving device. Bytes
// allocated on a device before it failed are intentionally stranded —
// the accounting died with the hardware.
func (n *Node) FreeAll(bytes int64) {
	n.touch()
	for _, d := range n.devices {
		if d.failed {
			continue
		}
		d.free(bytes)
	}
}
