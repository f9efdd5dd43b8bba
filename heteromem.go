// Package heteromem is a design-space exploration library for
// heterogeneous (CPU+GPU) memory systems, reproducing Lim & Kim,
// "Design Space Exploration of Memory Model for Heterogeneous Computing"
// (MSPC/PLDI 2012).
//
// The package is a facade over the implementation packages: it exposes
// the address-space models (unified, disjoint, partially shared, ADSM),
// the locality-management design space, the five case-study system
// configurations, the six Table III kernels, and the cycle-level
// trace-driven simulator that evaluates them.
//
// Quick start:
//
//	res, err := heteromem.RunKernel(heteromem.LRB(), "reduction")
//	fmt.Println(res.Sequential, res.Parallel, res.Communication)
//
// The cmd/ tools regenerate every table and figure of the paper; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results.
package heteromem

import (
	"heteromem/internal/addrspace"
	"heteromem/internal/energy"
	"heteromem/internal/guideline"
	"heteromem/internal/harness"
	"heteromem/internal/locality"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// Re-exported core types. The facade uses type aliases so values flow
// freely between the facade and the implementation packages.
type (
	// System is one heterogeneous system configuration: an address-space
	// model plus a communication fabric and programming-model behaviours.
	System = systems.System
	// Result is a simulation outcome with the sequential / parallel /
	// communication breakdown of Figure 5.
	Result = sim.Result
	// Program is a kernel as a phase program.
	Program = workload.Program
	// Model is a memory address-space design option.
	Model = addrspace.Model
	// Space is an address-space instance: allocation, page tables,
	// ownership, first-touch tracking.
	Space = addrspace.Space
	// Scheme is a locality-management configuration.
	Scheme = locality.Scheme
	// Cell is one (system, kernel) measurement from a sweep.
	Cell = harness.Cell
	// Simulator runs kernels on one system configuration.
	Simulator = sim.Simulator
	// Options tweak a simulator away from the baseline, for ablations.
	Options = sim.Options
)

// The four address-space models (Section II-A, Figure 1).
const (
	Unified         = addrspace.Unified
	Disjoint        = addrspace.Disjoint
	PartiallyShared = addrspace.PartiallyShared
	ADSM            = addrspace.ADSM
)

// Case-study system constructors (Section V-A).
var (
	// CPUGPU is the CUDA-style disjoint-space system over PCI-E.
	CPUGPU = systems.CPUGPU
	// LRB is the partially shared space over the PCI aperture with
	// ownership control and first-touch page faults.
	LRB = systems.LRB
	// GMAC is the ADSM system with asynchronous PCI-E copies.
	GMAC = systems.GMAC
	// Fusion is the disjoint-space system communicating through the
	// shared memory controllers.
	Fusion = systems.Fusion
	// IdealHetero is the unified, fully coherent system with free
	// communication.
	IdealHetero = systems.IdealHetero
	// CaseStudies returns all five in the paper's order.
	CaseStudies = systems.CaseStudies
	// SystemForModel returns the Figure 7 configuration for a model:
	// ideal communication, shared cache.
	SystemForModel = systems.ForModel
)

// Kernels returns the six Table III kernel names.
func Kernels() []string { return workload.Names() }

// GenerateKernel builds the named kernel's phase program with
// materialized trace streams (for serialization and inspection).
func GenerateKernel(name string) (*Program, error) { return workload.Generate(name) }

// NewSimulator returns a simulator for the system with the Table II
// baseline configuration. A simulator is stateful; use a fresh one per
// measurement.
func NewSimulator(sys System) (*Simulator, error) { return sim.New(sys) }

// NewSimulatorWithOptions returns a simulator with ablation options.
func NewSimulatorWithOptions(sys System, opts Options) (*Simulator, error) {
	return sim.NewWithOptions(sys, opts)
}

// RunKernel simulates the named kernel on the system with the baseline
// configuration and returns its timing breakdown.
func RunKernel(sys System, kernel string) (Result, error) {
	p, err := workload.Open(kernel)
	if err != nil {
		return Result{}, err
	}
	s, err := sim.New(sys)
	if err != nil {
		return Result{}, err
	}
	return s.Run(p)
}

// NewSpace returns an address space under the given model with 4 KB
// pages.
func NewSpace(model Model) (*Space, error) { return addrspace.New(model, 4096) }

// LocalityOptions returns the desirable locality-management schemes under
// a model (Section II-B); comparing counts across models reproduces the
// paper's conclusion 3.
func LocalityOptions(model Model) []Scheme { return locality.DesirableOptions(model) }

// EnergyBreakdown is a run's estimated energy by component (nJ).
type EnergyBreakdown = energy.Breakdown

// EstimateEnergy returns the run's energy breakdown under the default
// event-energy constants.
func EstimateEnergy(res Result) EnergyBreakdown { return energy.EstimateDefault(res) }

// DesignScore is one address-space model's efficiency measurements
// (Section VII future work).
type DesignScore = guideline.Score

// ScoreDesigns evaluates the four address-space models over the named
// kernels with equal weights and returns them best-first.
func ScoreDesigns(kernels []string) ([]DesignScore, error) {
	return guideline.Evaluate(kernels, guideline.DefaultWeights())
}

// Sweep helpers used by the examples and tools.
var (
	// RunCaseStudies sweeps the five systems over the named kernels.
	RunCaseStudies = harness.RunCaseStudies
	// RunAddressSpaces sweeps the four Figure 7 configurations.
	RunAddressSpaces = harness.RunAddressSpaces
	// RenderFigure5 formats a case-study sweep as the Figure 5 breakdown.
	RenderFigure5 = harness.RenderFigure5
	// RenderFigure6 formats a case-study sweep as Figure 6.
	RenderFigure6 = harness.RenderFigure6
	// RenderFigure7 formats an address-space sweep as Figure 7.
	RenderFigure7 = harness.RenderFigure7
)
