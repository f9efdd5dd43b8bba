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
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
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
	// Protocol is a programming-model protocol: the runtime behaviours a
	// memory model imposes at phase boundaries.
	Protocol = model.Protocol
	// ProtocolKind names a built-in programming-model protocol.
	ProtocolKind = model.Kind
	// Grid declaratively spans a region of the design space, one list per
	// axis; Grid.Enumerate takes the cross-product of coherent points.
	Grid = systems.Grid
	// MemTech selects the terminal memory technology behind the shared
	// L3 and its parameters (the mem_tech design axis).
	MemTech = memtech.Spec
	// MemTechKind names a terminal memory technology.
	MemTechKind = memtech.Kind
	// Translation configures the per-PU address-translation front-end
	// (TLBs, page walks, MMU sharing — the translation design axis). The
	// zero value keeps translation off the timed path.
	Translation = xlat.Spec
	// TranslationMMU names an MMU arrangement (off, private, shared).
	TranslationMMU = xlat.MMUKind
	// ResultCache is the persistent content-addressed cache of simulation
	// results; attach one to a sweep Executor or probe it directly with a
	// PointKey. Exact because the simulator is deterministic.
	ResultCache = rescache.Store
	// ResultCacheKey identifies one simulation exactly (design point,
	// kernel, workload shape, result-affecting options).
	ResultCacheKey = rescache.Key
)

// The four address-space models (Section II-A, Figure 1).
const (
	Unified         = addrspace.Unified
	Disjoint        = addrspace.Disjoint
	PartiallyShared = addrspace.PartiallyShared
	ADSM            = addrspace.ADSM
)

// The built-in programming-model protocols (one per surveyed runtime
// discipline).
const (
	// ExplicitCopy is the CUDA/Fusion discipline: every exchange is an
	// explicit bulk copy.
	ExplicitCopy = model.ExplicitCopy
	// Ownership is acquire/release ownership control without first-touch
	// faults (the Figure 7 partially-shared semantics).
	Ownership = model.Ownership
	// OwnershipFirstTouch is the full LRB model: ownership plus lib-pf
	// faults on first touch.
	OwnershipFirstTouch = model.OwnershipFirstTouch
	// ADSMLazy is GMAC's asymmetric distributed shared memory.
	ADSMLazy = model.ADSMLazy
	// IdealProtocol is the no-op protocol of a unified coherent machine.
	IdealProtocol = model.Ideal
)

// The terminal memory technologies (the mem_tech axis).
const (
	// MemDRAM is the paper's DDR3-1333 baseline (the default).
	MemDRAM = memtech.DRAM
	// MemHBM is a high-bandwidth stacked DRAM.
	MemHBM = memtech.HBM
	// MemNVM is a non-volatile tier with asymmetric read/write latency.
	MemNVM = memtech.NVM
	// MemDRAMCache is a DRAM cache fronting slow far memory.
	MemDRAMCache = memtech.DRAMCache
)

// The MMU arrangements of the translation axis.
const (
	// TranslationOff leaves translation off the timed path (the default).
	TranslationOff = xlat.Off
	// PrivateMMU gives each PU its own MMU and page walker.
	PrivateMMU = xlat.Private
	// SharedMMU makes both PUs contend for one MMU's page walker.
	SharedMMU = xlat.Shared
)

// Declarative system and grid serialisation (JSON).
var (
	// LoadSystem parses a declarative system description.
	LoadSystem = systems.Load
	// LoadSystemFile reads and parses a system description file.
	LoadSystemFile = systems.LoadFile
	// SaveSystem serialises a system so LoadSystem round-trips it.
	SaveSystem = systems.Save
	// HashSystem returns the canonical "sha256:..." content hash of a
	// design point (name-invariant); the run ledger's spec key.
	HashSystem = systems.Hash
	// LoadGridFile reads and parses a design-space grid description.
	LoadGridFile = systems.LoadGridFile
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
	// CaseStudiesWithTech returns the five case studies re-terminated on
	// the given memory technology.
	CaseStudiesWithTech = systems.CaseStudiesWithTech
	// CaseStudiesWithTranslation returns the five case studies with the
	// given address-translation spec applied to each.
	CaseStudiesWithTranslation = systems.CaseStudiesWithTranslation
	// GraceHopper is the Grace-Hopper-style preset: coherent unified
	// memory through shared controllers, terminated on HBM.
	GraceHopper = systems.GraceHopper
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
	// OpenResultCache opens (or creates) a persistent result cache at a
	// directory; "" opens a memory-only store.
	OpenResultCache = rescache.Open
	// PointKey derives the exact cache key for (system, program, options).
	PointKey = harness.PointKey
)
