// Package core is the public façade of the Liger reproduction: it wires
// a simulated multi-GPU node, a model, and one of the four runtimes
// (Liger, Intra-Op, Inter-Op, Inter-Th) into an Engine that serves a
// request trace and reports the paper's metrics.
//
// Typical use:
//
//	eng, _ := core.NewEngine(core.Options{
//	    Node:    hw.V100Node(),
//	    Model:   model.OPT30B(),
//	    Runtime: core.KindLiger,
//	})
//	trace, _ := serve.Generate(serve.TraceConfig{ ... })
//	res, _ := eng.Serve(trace)
package core

import (
	"fmt"

	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// RuntimeKind selects the execution engine.
type RuntimeKind int

const (
	// KindLiger runs the interleaved-parallelism scheduler (§3).
	KindLiger RuntimeKind = iota
	// KindIntraOp runs the Megatron-style tensor-parallel baseline.
	KindIntraOp
	// KindInterOp runs the pipeline baseline.
	KindInterOp
	// KindInterTh runs the theoretical pipeline baseline built from
	// partitioned kernels.
	KindInterTh
)

// String implements fmt.Stringer.
func (k RuntimeKind) String() string {
	switch k {
	case KindLiger:
		return "Liger"
	case KindIntraOp:
		return "Intra-Op"
	case KindInterOp:
		return "Inter-Op"
	case KindInterTh:
		return "Inter-Th"
	default:
		return fmt.Sprintf("RuntimeKind(%d)", int(k))
	}
}

// Kinds returns every runtime in the paper's presentation order.
func Kinds() []RuntimeKind { return []RuntimeKind{KindLiger, KindIntraOp, KindInterOp, KindInterTh} }

// KindByName parses a runtime name.
func KindByName(name string) (RuntimeKind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown runtime %q", name)
}

// Options configures an Engine.
type Options struct {
	// Node is the hardware to simulate (hw.V100Node(), hw.A100Node(),
	// or a custom spec).
	Node hw.Node
	// Model is the transformer to serve.
	Model model.Spec
	// Runtime selects the execution engine.
	Runtime RuntimeKind
	// Liger tunes the scheduler; the zero value means
	// liger.DefaultConfig for the node (contention factor 1.1 on the
	// V100 node, 1.15 otherwise, division factor 8, hybrid sync).
	Liger liger.Config
	// LigerSet marks Liger as explicitly configured (so a deliberate
	// zero-ish config is honored).
	LigerSet bool
	// NCCL overrides the communication-kernel footprint. By default the
	// Liger runtime trims channels (§3.5) and the baselines keep NCCL
	// defaults.
	NCCL    nccl.Config
	NCCLSet bool
	// Tracer, if non-nil, receives the node's spans, dependency records
	// and collective, fault and launch-queue events.
	Tracer gpusim.Tracer
	// Faults, if non-nil, is a deterministic fault schedule injected
	// into the simulated node as timed events before serving starts
	// (see internal/faults): device slowdowns, link degradation windows,
	// collective stalls, and device drops, plus the collective watchdog
	// timeout.
	Faults *faults.Schedule
	// CompilerOptions customize kernel compilation (e.g. the GEMM
	// decomposition strategy ablation).
	CompilerOptions []parallel.Option
	// Clock, when non-nil, is the simulation engine to build on instead
	// of a fresh one. The fleet layer (internal/cluster) uses it to give
	// each node of a cluster its own shard engine of one
	// simclock.Sharded executor; the caller then drives the executor
	// itself instead of Engine.Serve.
	Clock *simclock.Engine
}

// Engine is a ready-to-serve simulation instance.
type Engine struct {
	eng      *simclock.Engine
	node     *gpusim.Node
	compiler *parallel.Compiler
	rt       runtimes.Runtime
	kind     RuntimeKind
}

// NewEngine validates the options and builds the simulation.
func NewEngine(opts Options) (*Engine, error) {
	if err := opts.Node.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	// Refuse configurations whose per-device weight + workspace
	// footprint exceeds device memory — the constraint behind the
	// paper's testbed assignment (§4.2: only OPT-30B fits the 16 GB V100
	// node). Bound the workspace by the paper's largest general-task
	// batch shape (batch 8, seq 128) or the generative batch (32 tokens).
	if err := parallel.CheckPlacement(opts.Node, opts.Model, 8, 128, 0, 0); err != nil {
		return nil, err
	}
	ncclCfg := opts.NCCL
	if !opts.NCCLSet {
		ncclCfg = nccl.Config{ReducedChannels: opts.Runtime == KindLiger}
	}
	eng := opts.Clock
	if eng == nil {
		eng = simclock.New()
	}
	node, err := gpusim.New(eng, opts.Node)
	if err != nil {
		return nil, err
	}
	if opts.Tracer != nil {
		node.SetTracer(opts.Tracer)
	}
	if opts.Faults != nil {
		if err := faults.Inject(node, *opts.Faults); err != nil {
			return nil, err
		}
	}
	compiler := parallel.NewCompiler(opts.Node, ncclCfg, opts.CompilerOptions...)

	var rt runtimes.Runtime
	switch opts.Runtime {
	case KindLiger:
		cfg := opts.Liger
		if !opts.LigerSet {
			cfg = liger.DefaultConfig(opts.Node.Name)
		}
		rt, err = runtimes.NewLiger(node, compiler, opts.Model, cfg)
	case KindIntraOp:
		rt, err = runtimes.NewIntraOp(node, compiler, opts.Model)
	case KindInterOp:
		rt, err = runtimes.NewInterOp(node, compiler, opts.Model, false)
	case KindInterTh:
		rt, err = runtimes.NewInterOp(node, compiler, opts.Model, true)
	default:
		return nil, fmt.Errorf("core: unknown runtime kind %d", opts.Runtime)
	}
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, node: node, compiler: compiler, rt: rt,
		kind: opts.Runtime}, nil
}

// Serve runs the arrival trace to completion and returns the metrics.
// An Engine is single-shot: build a fresh one per run.
func (e *Engine) Serve(trace []serve.Arrival) (serve.Result, error) {
	return serve.Run(e.eng, e.rt, trace)
}

// ServePolicy runs the arrival trace under a deadline/retry policy:
// failed batches (aborted collectives under fault injection) are
// resubmitted with capped exponential backoff, and the result carries
// goodput and SLO accounting. An Engine is single-shot: build a fresh
// one per run.
func (e *Engine) ServePolicy(trace []serve.Arrival, pol serve.Policy) (serve.Result, error) {
	return serve.RunPolicy(e.eng, e.rt, trace, pol)
}

// Clock returns the simulation engine (for custom event scheduling).
func (e *Engine) Clock() *simclock.Engine { return e.eng }

// SimNode returns the simulated node (for utilization stats).
func (e *Engine) SimNode() *gpusim.Node { return e.node }

// Compiler returns the kernel compiler used by the runtime.
func (e *Engine) Compiler() *parallel.Compiler { return e.compiler }

// Runtime returns the underlying runtime.
func (e *Engine) Runtime() runtimes.Runtime { return e.rt }

// Kind returns the configured runtime kind.
func (e *Engine) Kind() RuntimeKind { return e.kind }
