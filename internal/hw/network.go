package hw

import (
	"fmt"
	"time"
)

// This file describes the inter-node fabric of a fleet: intra-node
// traffic stays on the node's own interconnect (NVLink / PCIe, see
// InterconnectSpec), while anything that crosses a node boundary — a
// routed request, a health notice, a weight transfer during replica
// re-placement — pays the network's latency and streams at its
// (possibly oversubscribed) bandwidth. The one-way latency is also the
// conservative lookahead of the fleet's node-per-shard executor
// (internal/cluster's topology).

// NetworkSpec captures the inter-node fabric of a cluster.
type NetworkSpec struct {
	Name string
	// LinkBWGBs is the per-node injection bandwidth in GB/s (one NIC).
	LinkBWGBs float64
	// Latency is the one-way propagation + switching latency of a
	// message between two nodes. It is the fleet's shard lookahead, so
	// it must be positive.
	Latency time.Duration
	// Oversubscription is the fabric's oversubscription factor (>= 1):
	// the ratio of worst-case offered load to core bandwidth. Effective
	// streaming bandwidth is LinkBWGBs / Oversubscription. Zero means 1
	// (non-blocking).
	Oversubscription float64
}

// Validate reports configuration errors.
func (n NetworkSpec) Validate() error {
	switch {
	case n.LinkBWGBs <= 0:
		return fmt.Errorf("hw: network %q needs a positive link bandwidth, got %v GB/s", n.Name, n.LinkBWGBs)
	case n.Latency <= 0:
		return fmt.Errorf("hw: network %q needs a positive latency (it is the fleet's shard lookahead), got %v", n.Name, n.Latency)
	case n.Oversubscription != 0 && n.Oversubscription < 1:
		return fmt.Errorf("hw: network %q oversubscription %v below 1", n.Name, n.Oversubscription)
	}
	return nil
}

// EffectiveBWGBs is the streaming bandwidth after oversubscription.
func (n NetworkSpec) EffectiveBWGBs() float64 {
	over := n.Oversubscription
	if over < 1 {
		over = 1
	}
	return n.LinkBWGBs / over
}

// Transfer returns the time to move bytes between two nodes: one
// latency plus streaming at the effective bandwidth.
func (n NetworkSpec) Transfer(bytes int64) time.Duration {
	d := n.Latency
	if bytes > 0 {
		d += time.Duration(float64(bytes) / (n.EffectiveBWGBs() * 1e9) * float64(time.Second))
	}
	return d
}

// IBNetwork returns an InfiniBand-class fabric: HDR-era 200 Gb/s NICs
// (25 GB/s), ~2 µs end-to-end latency, non-blocking.
func IBNetwork() NetworkSpec {
	return NetworkSpec{
		Name:             "infiniband",
		LinkBWGBs:        25,
		Latency:          2 * time.Microsecond,
		Oversubscription: 1,
	}
}

// EthernetNetwork returns a datacenter Ethernet fabric: 100 Gb/s NICs
// (12.5 GB/s), ~10 µs latency, 2:1 oversubscribed at the spine.
func EthernetNetwork() NetworkSpec {
	return NetworkSpec{
		Name:             "ethernet",
		LinkBWGBs:        12.5,
		Latency:          10 * time.Microsecond,
		Oversubscription: 2,
	}
}

// NetworkPresets returns the built-in fabrics keyed by name.
func NetworkPresets() map[string]NetworkSpec {
	return map[string]NetworkSpec{
		"ib":       IBNetwork(),
		"ethernet": EthernetNetwork(),
	}
}

// NetworkPreset looks up a network preset ("ib" or "ethernet").
func NetworkPreset(name string) (NetworkSpec, error) {
	n, ok := NetworkPresets()[name]
	if !ok {
		return NetworkSpec{}, fmt.Errorf("hw: unknown network preset %q (want ib or ethernet)", name)
	}
	return n, nil
}

// Cluster is a fleet of identical multi-GPU nodes behind an inter-node
// network: Nodes replica-hosting nodes plus Spares idle nodes kept as
// failover capacity. Model replicas are tensor-parallel within one
// node and replicated across nodes (the router load-balances across
// replicas; internal/cluster composes the simulation).
type Cluster struct {
	Name string
	// Node is the per-node hardware (every node is identical).
	Node Node
	// Nodes is the number of replica-hosting nodes (one replica each).
	Nodes int
	// Spares is the number of idle spare nodes available for replica
	// re-placement after whole-node loss.
	Spares int
	// Network is the inter-node fabric.
	Network NetworkSpec
}

// TotalNodes is replica nodes plus spares.
func (c Cluster) TotalNodes() int { return c.Nodes + c.Spares }

// Validate reports configuration errors.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("hw: cluster %q needs at least one replica node, got %d", c.Name, c.Nodes)
	case c.Spares < 0:
		return fmt.Errorf("hw: cluster %q has %d spare nodes", c.Name, c.Spares)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Network.Validate()
}
