// Package faults is the deterministic fault-injection subsystem: it
// models time-varying node degradation — transient device slowdowns,
// link-bandwidth degradation windows, collective stalls, device drops
// with restore — as a seeded schedule of timed events injected into the
// simulation, rather than as pre-run mutations.
//
// A Schedule is a plain value (buildable by hand, from a scenario
// preset, or from a seeded generator) and Inject arms it on a gpusim
// node as simclock events: every fault applies and reverts at its sim
// time, so in-flight kernels and collectives re-time mid-run exactly as
// a real GPU re-clocks. Simulators like Frontier and LLMServingSim
// treat time-varying failure and recovery as first-class inputs; this
// package gives the Liger reproduction the same testbed so the
// robustness question the paper leaves open — how gracefully does
// interleaved scheduling degrade when the node misbehaves mid-flight —
// becomes measurable.
package faults

import (
	"fmt"
	"sort"
	"time"

	"liger/internal/gpusim"
)

// Kind classifies one fault event.
type Kind int

const (
	// Slowdown throttles a device's overall progress rate to Factor for
	// the window (thermal throttling, a noisy neighbour).
	Slowdown Kind = iota
	// LinkDegrade throttles only the device's communication rate to
	// Factor for the window (a flaky NVLink/PCIe link). Collectives
	// advance at their slowest member, so one bad link gates the group.
	LinkDegrade
	// DeviceDrop freezes the device almost entirely for the window,
	// restoring it afterwards (an Xid-style fall-off-the-bus event).
	// Factor is ignored. Pair with a collective timeout so hung
	// rendezvous abort instead of waiting out the window.
	DeviceDrop
	// CollStall freezes the device's communication rate for the window
	// (a hung collective: NCCL kernels spin, no bytes move). Factor is
	// ignored. Pair with a collective timeout to model abort + retry.
	CollStall
	// DeviceFail permanently removes the device at Start: in-flight
	// kernels cancel, its collective memberships abort, and — unlike
	// DeviceDrop — there is no restore. Runtimes observe the failure and
	// re-plan onto the survivors. Duration and Factor are ignored.
	DeviceFail
	// NodeFail permanently removes a whole node of a cluster at Start:
	// every in-flight request on it is lost, the router evicts its
	// replica, and the control plane re-places the replica onto spare
	// capacity (internal/cluster). Device, Duration, and Factor are
	// ignored; the target is Event.Node. NodeFail is a cluster-level
	// fault — single-node injection (Inject) rejects it.
	NodeFail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Slowdown:
		return "slowdown"
	case LinkDegrade:
		return "link-degrade"
	case DeviceDrop:
		return "device-drop"
	case CollStall:
		return "coll-stall"
	case DeviceFail:
		return "device-fail"
	case NodeFail:
		return "node-fail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// freezeFactor is the rate multiplier used by DeviceDrop and CollStall:
// near-total freeze, but positive so completion events stay finite and
// a schedule without a watchdog still terminates.
const freezeFactor = 1e-6

// Event is one fault: a window [Start, Start+Duration) during which a
// device's speed or link rate is scaled by Factor.
type Event struct {
	Kind Kind
	// Node is the cluster node the event targets. Single-node schedules
	// leave it 0; a cluster run splits its schedule per node
	// (SplitByNode) and NodeFail events target Node directly.
	Node   int
	Device int
	// Start is the window's opening sim time.
	Start time.Duration
	// Duration is the window length; <= 0 means the fault persists to
	// the end of the run (the degenerate static-straggler shape).
	Duration time.Duration
	// Factor is the rate multiplier in (0, 1] while the window is open.
	// DeviceDrop and CollStall ignore it (they pin a freeze factor).
	Factor float64
}

// factor returns the effective rate multiplier of the event.
func (e Event) factor() float64 {
	if e.Kind == DeviceDrop || e.Kind == CollStall {
		return freezeFactor
	}
	return e.Factor
}

// onSpeed reports whether the event scales the device's overall speed
// (true) or only its communication rate (false).
func (e Event) onSpeed() bool { return e.Kind == Slowdown || e.Kind == DeviceDrop }

// String renders the event for logs and experiment headers.
func (e Event) String() string {
	target := fmt.Sprintf("dev%d", e.Device)
	if e.Node > 0 {
		target = fmt.Sprintf("node%d/%s", e.Node, target)
	}
	switch e.Kind {
	case NodeFail:
		return fmt.Sprintf("%s node%d at %v", e.Kind, e.Node, e.Start)
	case DeviceFail:
		return fmt.Sprintf("%s %s at %v", e.Kind, target, e.Start)
	}
	end := "end"
	if e.Duration > 0 {
		end = (e.Start + e.Duration).String()
	}
	return fmt.Sprintf("%s %s [%v, %s) x%.3g", e.Kind, target, e.Start, end, e.factor())
}

// Schedule is a full fault plan for one run.
type Schedule struct {
	Events []Event
	// CollTimeout, when positive, arms the node-wide collective
	// watchdog: a collective that has not completed within this span of
	// its first member's arrival aborts (and the owning batch fails, so
	// the serving layer can retry it).
	CollTimeout time.Duration
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 && s.CollTimeout == 0 }

// Validate bounds-checks the schedule against a single node size. It
// is the one-node special case of ValidateCluster, so NodeFail events
// and nonzero Node targets are rejected — they need a cluster.
func (s Schedule) Validate(numDevices int) error {
	return s.ValidateCluster(1, numDevices)
}

// ValidateCluster bounds-checks the schedule against a cluster of
// numNodes identical nodes with devicesPerNode GPUs each. Every error
// names the event index, kind, target, and time so a scenario author
// can find the offending line.
func (s Schedule) ValidateCluster(numNodes, devicesPerNode int) error {
	if s.CollTimeout < 0 {
		return fmt.Errorf("faults: negative collective timeout %v", s.CollTimeout)
	}
	failedDev := make(map[[2]int]int) // (node, device) -> first DeviceFail index
	failedNode := make(map[int]int)   // node -> first NodeFail index
	for i, e := range s.Events {
		if e.Node < 0 || e.Node >= numNodes {
			return fmt.Errorf("faults: event %d (%s at %v) targets node %d of a %d-node cluster",
				i, e.Kind, e.Start, e.Node, numNodes)
		}
		if e.Kind == NodeFail {
			if numNodes == 1 {
				return fmt.Errorf("faults: event %d (%s at %v) needs a cluster — a single-node run has no node to lose",
					i, e.Kind, e.Start)
			}
			if e.Start < 0 {
				return fmt.Errorf("faults: event %d (%s node%d) starts at negative time %v", i, e.Kind, e.Node, e.Start)
			}
			// Permanent: failing an already-failed node is a schedule bug,
			// not an idempotent no-op.
			if prev, dup := failedNode[e.Node]; dup {
				return fmt.Errorf("faults: event %d (%s node%d at %v) fails node %d twice (first failed by event %d at %v)",
					i, e.Kind, e.Node, e.Start, e.Node, prev, s.Events[prev].Start)
			}
			failedNode[e.Node] = i
			continue
		}
		switch {
		case e.Device < 0 || e.Device >= devicesPerNode:
			return fmt.Errorf("faults: event %d (%s) targets device %d of a %d-GPU node",
				i, e.Kind, e.Device, devicesPerNode)
		case e.Start < 0:
			return fmt.Errorf("faults: event %d (%s) starts at negative time %v", i, e.Kind, e.Start)
		case e.Kind != DeviceFail && e.Duration < 0:
			// An empty window would silently never apply; name the event
			// and its range so a scenario author can find the bad line.
			return fmt.Errorf("faults: event %d (%s dev%d) has an empty window [%v, %v): negative duration %v (use Duration 0 to persist to end of run)",
				i, e.Kind, e.Device, e.Start, e.Start+e.Duration, e.Duration)
		case e.Kind == Slowdown || e.Kind == LinkDegrade:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d (%s) factor %v outside (0, 1]", i, e.Kind, e.Factor)
			}
		case e.Kind == DeviceDrop || e.Kind == CollStall:
			// Factor ignored; nothing to check.
		case e.Kind == DeviceFail:
			// Permanent: failing an already-failed device is a schedule bug,
			// not an idempotent no-op.
			key := [2]int{e.Node, e.Device}
			if prev, dup := failedDev[key]; dup {
				return fmt.Errorf("faults: event %d (%s node%d/dev%d at %v) fails device %d twice (first failed by event %d at %v)",
					i, e.Kind, e.Node, e.Device, e.Start, e.Device, prev, s.Events[prev].Start)
			}
			failedDev[key] = i
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// SplitByNode partitions the schedule of a cluster run: element n holds
// node n's device-level events with Node cleared (ready for Inject into
// that node's simulation), and every node inherits the collective
// timeout. NodeFail events are cluster-level and are NOT included —
// read them with NodeFails.
func (s Schedule) SplitByNode(numNodes int) []Schedule {
	out := make([]Schedule, numNodes)
	for n := range out {
		out[n].CollTimeout = s.CollTimeout
	}
	for _, e := range s.Events {
		if e.Kind == NodeFail || e.Node < 0 || e.Node >= numNodes {
			continue
		}
		n := e.Node
		e.Node = 0
		out[n].Events = append(out[n].Events, e)
	}
	return out
}

// NodeFails returns the schedule's NodeFail events in canonical
// (Start, Node) order, so arming them is permutation-invariant.
func (s Schedule) NodeFails() []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == NodeFail {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Static returns the degenerate schedule of the former SetSpeed-style
// injection: one device pinned to a speed for the whole run.
func Static(device int, speed float64) Schedule {
	return Schedule{Events: []Event{{Kind: Slowdown, Device: device, Factor: speed}}}
}

// Inject validates the schedule against the node and arms every fault
// as timed simulation events. Overlapping windows on the same device
// compose multiplicatively; each transition re-times in-flight kernels
// and collectives at its exact sim instant. A schedule with any event
// keeps the node unfolded (gpusim.Node.Fold). Must be called before the
// simulation runs.
func Inject(node *gpusim.Node, s Schedule) error {
	if err := s.Validate(node.NumDevices()); err != nil {
		return err
	}
	if s.CollTimeout > 0 {
		node.SetCollectiveTimeout(s.CollTimeout)
	}
	if len(s.Events) > 0 {
		// Every event targets one device, so the devices stop being
		// identical: the node must simulate each of them.
		node.KeepUnfolded()
	}
	eng := node.Engine()
	// Canonicalize the event order first: float products are commutative
	// but not associative, so folding windows in the caller's order would
	// make the armed factors depend on event permutation. Sorting by every
	// field makes the injected timeline a pure function of the event SET —
	// permuting Schedule.Events yields a byte-identical simulation.
	evs := append([]Event(nil), s.Events...)
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Duration != b.Duration {
			return a.Duration < b.Duration
		}
		return a.Factor < b.Factor
	})
	// Fold the events of each (device, channel) into a piecewise-constant
	// factor timeline and arm one engine event per transition. The factor
	// at each transition is recomputed as the product over open windows
	// (in canonical order), so overlapping windows compose
	// deterministically and reverts restore the exact surrounding value.
	// DeviceFail events are not windows; they arm separately below.
	type channel struct {
		device int
		speed  bool
	}
	var fails []Event
	byChannel := make(map[channel][]Event)
	for _, e := range evs {
		if e.Kind == DeviceFail {
			fails = append(fails, e)
			continue
		}
		ch := channel{device: e.Device, speed: e.onSpeed()}
		byChannel[ch] = append(byChannel[ch], e)
	}
	// Deterministic channel order (map iteration is randomized).
	chans := make([]channel, 0, len(byChannel))
	for ch := range byChannel {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].device != chans[j].device {
			return chans[i].device < chans[j].device
		}
		return chans[i].speed && !chans[j].speed
	})
	for _, ch := range chans {
		evs := byChannel[ch]
		cuts := make(map[time.Duration]bool)
		for _, e := range evs {
			cuts[e.Start] = true
			if e.Duration > 0 {
				cuts[e.Start+e.Duration] = true
			}
		}
		times := make([]time.Duration, 0, len(cuts))
		for t := range cuts {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		dev := node.Device(ch.device)
		apply := dev.SetSpeed
		if !ch.speed {
			apply = dev.SetLinkFactor
		}
		for _, t := range times {
			f := 1.0
			for _, e := range evs {
				if e.Start <= t && (e.Duration <= 0 || t < e.Start+e.Duration) {
					f *= e.factor()
				}
			}
			factor := f
			eng.At(t, func(simTime time.Duration) { apply(factor) })
		}
	}
	// Permanent failures arm after the window transitions of the same
	// instant: a dying device's last throttle applies, then it is gone
	// (Set* on a failed device is a no-op either way).
	for _, e := range fails {
		dev := e.Device
		eng.At(e.Start, func(time.Duration) { node.FailDevice(dev) })
	}
	return nil
}
