// Package dist simulates distributed-memory AO-ADMM, substantiating the
// paper's §IV-B remark that the blockwise formulation extends to distributed
// memory with "no communication ... beyond the MTTKRP operation".
//
// The simulation runs N "nodes" as goroutines over a coarse-grained 1-D
// decomposition (Smith & Karypis, IPDPS'16 [23] family): the tensor's
// non-zeros are partitioned by mode-0 slice, and every factor's rows are
// partitioned contiguously so each node owns the rows of every mode it
// updates. Run is a client of core's AO outer loop (core.Drive), like the
// networked coordinator: the simulated cluster is the loop's Engine and its
// Step. Per outer iteration and mode:
//
//  1. (Engine) each node computes a partial MTTKRP from its local
//     non-zeros, and the partials' non-zero rows are reduce-scattered in
//     node order so each node holds the complete K rows it owns
//     (communication: the non-owned rows of each partial);
//  2. (Step) each node runs blocked ADMM on its owned rows — zero
//     communication, because every block's convergence is purely local
//     (the paper's claim); the baseline variant would need a residual
//     allreduce per inner iteration, priced by BaselineADMMCommBytes for
//     comparison;
//  3. (Step) the updated rows are allgathered so the next MTTKRP sees full
//     factors, and per-node Gram contributions are allreduced.
//
// Every collective is counted by a Pricer, so tests can verify both
// numerical equivalence with the shared-memory solver and the
// communication-free ADMM property. The node-local steps — partial
// MTTKRP, compaction to non-zero rows, the node-order reduce and its
// pricing, the owned-rows ADMM — live in node.go and are shared with the
// networked engine (internal/distnet): this simulator is that engine's
// numerical and communication-cost oracle.
package dist

import (
	"fmt"
	"sync"

	"aoadmm/internal/admm"
	"aoadmm/internal/core"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// Options configures a distributed factorization.
type Options struct {
	// Nodes is the simulated node count (>= 1).
	Nodes int
	// Rank is the CPD rank.
	Rank int
	// Constraints is one operator per mode (single-element broadcasts).
	Constraints []prox.Operator
	// MaxOuterIters caps outer iterations (<= 0 means 50).
	MaxOuterIters int
	// Tol, when > 0, stops once the relative error changes by less than
	// Tol between outer iterations, |Δerr| < Tol (core.Drive's stopping
	// rule, so a rising error never counts as convergence). Zero — the
	// default — runs MaxOuterIters unconditionally, preserving
	// byte-for-byte communication parity across node counts.
	Tol float64
	// InnerEps / InnerMaxIters / BlockSize parameterize the local ADMM.
	InnerEps      float64
	InnerMaxIters int
	BlockSize     int
	// Mode0Ranges, when non-nil, fixes each node's mode-0 ownership range
	// explicitly (len must equal Nodes, ranges must partition [0, Dims[0])
	// in ascending order). The networked engine derives placement from the
	// on-disk shard layout; passing the same ranges here lets parity tests
	// price the identical decomposition. Nil means the even Partition.
	Mode0Ranges [][2]int
	// Seed drives initialization (matching core.Factorize's layout).
	Seed int64
}

// CommStats tallies simulated network traffic.
type CommStats struct {
	// MTTKRPBytes is the volume moved by the K reduce-scatter.
	MTTKRPBytes int64
	// FactorBytes is the volume moved by factor allgathers.
	FactorBytes int64
	// GramBytes is the volume of the Gram allreduce.
	GramBytes int64
	// ADMMBytes is communication during the inner ADMM itself. The blocked
	// formulation keeps this at exactly zero.
	ADMMBytes int64
	// Messages counts discrete transfers.
	Messages int64
}

// Total returns all bytes moved.
func (c CommStats) Total() int64 {
	return c.MTTKRPBytes + c.FactorBytes + c.GramBytes + c.ADMMBytes
}

// Result is the outcome of a distributed run.
type Result struct {
	Factors    *kruskal.Tensor
	RelErr     float64
	OuterIters int
	Converged  bool
	Comm       CommStats
}

// Run factorizes x on opts.Nodes simulated nodes and returns the factors
// with communication statistics. It runs core's AO outer loop (core.Drive)
// single-threaded, with the simulated cluster as both the Engine and the
// Step, so its stop rule, initialization and fit are the shared-memory
// solver's.
func Run(x *tensor.COO, opts Options) (*Result, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("dist: need >= 1 node, got %d", opts.Nodes)
	}
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("dist: Rank must be positive")
	}
	// The block grid is global, so results match the shared-memory solver
	// when node boundaries fall on block boundaries.
	s := &simulator{rank: opts.Rank, cfg: admm.Config{
		Eps:       opts.InnerEps,
		MaxIters:  opts.InnerMaxIters,
		BlockSize: opts.BlockSize,
		Threads:   1,
	}}
	p, err := core.InMemoryProblem(x, func() (core.Engine, error) { return s, s.compile(x) })
	if err != nil {
		return nil, err
	}
	if s.cons, err = core.BroadcastConstraints(opts.Constraints, x.Order()); err != nil {
		return nil, err
	}
	if opts.MaxOuterIters <= 0 {
		opts.MaxOuterIters = 50
	}

	// Partition every mode's rows contiguously across nodes; mode 0 may be
	// pinned by the caller (shard-derived placement parity).
	s.owned = make([][][2]int, x.Order())
	for m := range s.owned {
		s.owned[m] = Partition(x.Dims[m], opts.Nodes)
	}
	if opts.Mode0Ranges != nil {
		if err := validateRanges(opts.Mode0Ranges, opts.Nodes, x.Dims[0]); err != nil {
			return nil, err
		}
		s.owned[0] = opts.Mode0Ranges
	}

	r, err := core.Drive(p, core.Step{Kernel: stats.KernelADMMInner, Duals: true, Update: s.update}, core.Options{
		Rank: opts.Rank, MaxOuterIters: opts.MaxOuterIters, Tol: opts.Tol, Threads: 1, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Factors:    r.Factors,
		RelErr:     r.RelErr,
		OuterIters: r.OuterIters,
		Converged:  r.Converged,
		Comm:       s.pricer.Stats(),
	}, nil
}

// simulator is the in-process cluster as core's Engine and Step. Its nodes
// share the replicated factors; node i holds the non-zeros of the mode-0
// slices in owned[0][i] and owns rows owned[m][i] of every mode m.
type simulator struct {
	rank    int
	owned   [][][2]int
	kernels []LocalKernel
	cons    []prox.Operator
	cfg     admm.Config
	pricer  Pricer
}

// compile places the non-zeros by mode-0 owner and builds every node's
// local CSF kernel over them (full global dims, so factor indices remain
// global).
func (s *simulator) compile(x *tensor.COO) error {
	parts := SplitByMode0(x, s.owned[0])
	s.kernels = make([]LocalKernel, len(parts))
	for i, part := range parts {
		k, err := NewLocalKernel(part, core.FormatCSF, s.rank)
		if err != nil {
			return err
		}
		s.kernels[i] = k
	}
	return nil
}

// MTTKRP computes every node's partial concurrently, then reduce-scatters
// the non-zero rows into k in node order, pricing each row a node sends to
// its owner.
func (s *simulator) MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, _ mttkrp.LeafFactor, _ mttkrp.Options) error {
	n := len(s.kernels)
	rows := make([][]int32, n)
	vals := make([][]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i, kern := range s.kernels {
		go func() {
			defer wg.Done()
			rows[i], vals[i] = NonZeroRows(kern.PartialMTTKRP(m, factors, k.Rows, s.rank))
		}()
	}
	wg.Wait()
	k.Zero()
	for i := range s.kernels {
		if err := ReduceRows(k, rows[i], vals[i], s.owned[m][i], &s.pricer); err != nil {
			return fmt.Errorf("dist: node %d: %w", i, err)
		}
	}
	return nil
}

func (s *simulator) LeafTree(int) *csf.Tensor { return nil }

func (s *simulator) OOCReport() *stats.OOCReport { return nil }

func (s *simulator) Backend(int) string { return "dist" }

// update runs the owned-rows blocked ADMM on every node concurrently — no
// communication, the §IV-B property — then prices the allgather of the
// updated rows to the other nodes and the Gram allreduce (the driver
// recomputes the replicated Gram from the gathered factor).
func (s *simulator) update(u core.ModeUpdate) (admm.Stats, error) {
	n := len(s.kernels)
	cfg := s.cfg
	cfg.Prox = s.cons[u.Mode]
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i, span := range s.owned[u.Mode] {
		go func() {
			defer wg.Done()
			lo, hi := span[0], span[1]
			errs[i] = LocalADMM(u.Factor.RowBlock(lo, hi), u.Dual.RowBlock(lo, hi), u.K.RowBlock(lo, hi), u.G, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return admm.Stats{}, fmt.Errorf("dist: node %d: %w", i, err)
		}
	}
	for _, span := range s.owned[u.Mode] {
		s.pricer.AllgatherNode(span[1]-span[0], s.rank, n)
	}
	s.pricer.GramAllreduce(s.rank, n)
	return admm.Stats{}, nil
}

// validateRanges checks that explicit mode-0 ranges partition [0, dim).
func validateRanges(ranges [][2]int, nodes, dim int) error {
	if len(ranges) != nodes {
		return fmt.Errorf("dist: %d Mode0Ranges for %d nodes", len(ranges), nodes)
	}
	prev := 0
	for i, r := range ranges {
		if r[0] != prev || r[1] < r[0] || r[1] > dim {
			return fmt.Errorf("dist: Mode0Ranges[%d] = [%d, %d) does not partition [0, %d) after %d",
				i, r[0], r[1], dim, prev)
		}
		prev = r[1]
	}
	if prev != dim {
		return fmt.Errorf("dist: Mode0Ranges end at %d, want %d", prev, dim)
	}
	return nil
}

// BaselineADMMCommBytes prices what the kernel-parallel baseline would have
// communicated during ADMM: one 4-scalar residual allreduce per inner
// iteration per mode (2·(n-1) transfers of 32 bytes each in a flat model).
// The blocked formulation's corresponding figure is zero.
func BaselineADMMCommBytes(nodes, modes, outerIters, innerIters int) int64 {
	if nodes <= 1 {
		return 0
	}
	perIter := int64(2*(nodes-1)) * 32
	return perIter * int64(modes) * int64(outerIters) * int64(innerIters)
}
