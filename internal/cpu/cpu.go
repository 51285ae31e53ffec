// Package cpu executes ISA programs on a modeled machine that couples a
// functional interpreter to the microarchitectural state the Pathfinder
// attacks exploit: the per-hart path history register, the shared
// conditional branch predictor and BTB/IBP (package bpu), and a shared data
// cache (package cache).
//
// The execution model is functional-first with a speculation side model:
// architectural execution always follows correct outcomes, while every
// conditional branch is also predicted, counted, and — when mispredicted —
// followed by a bounded *transient* execution of the predicted wrong path.
// Transient instructions run on a sandboxed copy of the architectural
// state; their loads perturb the shared cache (the Spectre channel) and
// everything else is squashed. The transient window length equals the
// branch's resolution delay, which is dominated by cache misses feeding its
// operands — flushing a value a branch depends on therefore widens the
// window, exactly as in §9 of the paper.
package cpu

import (
	"fmt"

	"pathfinder/internal/aes"
	"pathfinder/internal/bpu"
	"pathfinder/internal/cache"
	"pathfinder/internal/faultinject"
	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// Domain is a security domain for the attack-surface experiments (§7).
type Domain uint8

// Security domains.
const (
	User Domain = iota
	Kernel
	Enclave
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	case Enclave:
		return "enclave"
	}
	return fmt.Sprintf("domain(%d)", uint8(d))
}

// splitmix64 is a tiny cloneable PRNG driving the RAND instruction and the
// noise model; cloneability keeps transient execution from perturbing the
// architectural random stream.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Hart is one logical core: private architectural registers and a private
// PHR (§7.3: SMT harts do not share the PHR).
type Hart struct {
	ID     int
	PHR    *phr.Reg
	Domain Domain

	regs    [isa.NumRegs]uint64
	vregs   [isa.NumVRegs][16]byte
	ready   [isa.NumRegs]uint64 // cycle at which each register's value is available
	stack   []frame
	rng     splitmix64
	machine *Machine
}

type frame struct {
	retIdx        int // program index to resume at; -1 ends the run
	restoreDomain bool
	prevDomain    Domain
}

// Reg returns a scalar register value.
func (h *Hart) Reg(r isa.Reg) uint64 { return h.regs[r] }

// SetReg writes a scalar register.
func (h *Hart) SetReg(r isa.Reg, v uint64) { h.regs[r] = v }

// VReg returns a vector register value.
func (h *Hart) VReg(v isa.VReg) [16]byte { return h.vregs[v] }

// SetVReg writes a vector register.
func (h *Hart) SetVReg(v isa.VReg, val [16]byte) { h.vregs[v] = val }

// BranchStat accumulates per-branch-address outcomes; the model's stand-in
// for per-branch performance-counter measurements.
type BranchStat struct {
	Executed     uint64
	Taken        uint64
	Mispredicted uint64
}

// MispredictRate returns mispredictions per execution.
func (s BranchStat) MispredictRate() float64 {
	if s.Executed == 0 {
		return 0
	}
	return float64(s.Mispredicted) / float64(s.Executed)
}

// Counters are machine-wide event counts since the last ResetStats. The
// JSON form is consumed by the experiment-orchestration service, which
// aggregates counters across every machine a job builds.
type Counters struct {
	Instructions    uint64 `json:"instructions"`
	Cycles          uint64 `json:"cycles"`
	CondBranches    uint64 `json:"cond_branches"`
	TakenBranches   uint64 `json:"taken_branches"` // all taken branches, conditional or not
	Mispredicts     uint64 `json:"mispredicts"`
	TransientInstrs uint64 `json:"transient_instrs"`
	Runs            uint64 `json:"runs"`
}

// Add accumulates o into c. Harness drivers build many short-lived machines
// per experiment; Add lets them report one aggregate to callers (the service
// layer feeds these into its /metrics exposition).
func (c *Counters) Add(o Counters) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.CondBranches += o.CondBranches
	c.TakenBranches += o.TakenBranches
	c.Mispredicts += o.Mispredicts
	c.TransientInstrs += o.TransientInstrs
	c.Runs += o.Runs
}

// Options configure a Machine.
type Options struct {
	Arch               bpu.Config // microarchitecture; zero value means Alder Lake
	Harts              int        // logical cores; default 1, max 2 per physical core
	Seed               int64      // deterministic seed for RAND and the noise model
	Noise              float64    // probability a mispredict resolves with no transient window
	MispredictPenalty  int        // cycles added per misprediction (default 15)
	MaxTransientWindow int        // cap on transient instructions per mispredict (default 400)
	StepLimit          uint64     // per-Run instruction budget (default 100M)

	// NewPredictor, when non-nil, builds the conditional branch predictor
	// backing this machine instead of the default bpu.CBP — the hook the
	// differential-verification harness uses to run whole experiments on
	// the internal/refmodel oracle. It is a constructor, not an instance,
	// so every Machine gets private predictor state.
	NewPredictor func(bpu.Config) bpu.Predictor

	// Faults arms the deterministic fault-injection layer: PHR pollution
	// and misalignment at run boundaries, PHT training drop/aliasing,
	// cache-eviction pressure and latency jitter on memory accesses. The
	// injector is seeded from Seed (plus the profile's Salt), so faulted
	// runs keep the machine's determinism contract. A nil or disabled
	// profile leaves every hot path untouched.
	Faults *faultinject.Profile

	// Scalar forces the reference scalar interpreter even when a run is
	// eligible for the dense engine (see dense.go). The differential tests
	// use it as the oracle side of batch-vs-scalar comparisons; production
	// callers leave it false.
	Scalar bool
}

// Machine is a physical core: shared branch prediction unit, shared cache
// and memory, one or two harts.
type Machine struct {
	BPU  *bpu.Unit
	Mem  *Memory
	Data *cache.Cache

	IBRS bool // when set, entering the kernel flushes indirect predictors

	// TraceTaken, when non-nil, observes every architecturally taken branch
	// (pc, target) in execution order. Experiments use it to compute
	// ground-truth path history; attacks never do.
	TraceTaken func(pc, target uint64)

	// Aux is an opaque slot for higher layers to attach per-machine caches
	// (internal/core keeps its reusable attack-program templates here). The
	// simulator itself never touches it.
	Aux any

	cbp    bpu.Predictor         // conditional predictor in use: BPU.CBP or an Options-supplied oracle
	inj    *faultinject.Injector // nil unless Options.Faults is enabled
	harts  []*Hart
	opts   Options
	noise  splitmix64
	stats  Counters
	perPC  map[uint64]*BranchStat
	progs  map[*isa.Program]*progState
	tscr   transientState   // reused wrong-path sandbox (exec is not reentrant)
	kstubs map[int64]string // syscall number -> entry label
	estubs map[int64]string // enclave number -> entry label

	// Restore-sync marker: when syncOK is set, every BPU/cache region whose
	// dirty bit is clear is bit-identical to the snapshot whose content hash
	// is syncHash (the machine was last restored to, or snapshotted into,
	// that state and the dirty bitmaps have recorded every mutation since).
	// RestoreFrom uses it to rewind via the dirty-only copies — restore cost
	// proportional to the trial's footprint instead of table geometry.
	// Recycle clears it; anything it cannot account for must.
	syncOK   bool
	syncHash uint64
}

// progState is decoded per-(machine, program) interpreter state: the
// per-instruction branch-stat references that replace the per-execution
// map probe, and the dense predecoded stream the fast engine dispatches
// over. A stat reference is validated against the instruction's current
// address, so program templates that re-address instructions in place
// (internal/core's patched attack programs) self-heal on first use; the
// dense stream is validated against Program.Version, which Reindex bumps
// after every in-place mutation.
type progState struct {
	stats        []statRef
	dense        []denseInstr
	denseVersion uint64
	denseOK      bool
}

type statRef struct {
	addr uint64
	s    *BranchStat
}

// progCacheCap bounds the per-machine decoded-program cache; when a machine
// churns through more distinct programs than this, the cache is dropped
// wholesale and rebuilt on demand.
const progCacheCap = 64

func (m *Machine) progState(p *isa.Program) *progState {
	ps := m.progs[p]
	if ps == nil || len(ps.stats) != len(p.Instrs) {
		if len(m.progs) >= progCacheCap {
			m.progs = make(map[*isa.Program]*progState, progCacheCap)
		}
		ps = &progState{stats: make([]statRef, len(p.Instrs))}
		m.progs[p] = ps
	}
	return ps
}

// normalizeOptions applies the documented defaults; New, Recycle and
// NewBatch share it so a recycled or batch-arena machine defaults exactly
// like a fresh one.
func normalizeOptions(opts Options) Options {
	if opts.Arch.PHRSize == 0 {
		opts.Arch = bpu.AlderLake
	}
	if opts.Harts <= 0 {
		opts.Harts = 1
	}
	if opts.MispredictPenalty == 0 {
		opts.MispredictPenalty = 15
	}
	if opts.MaxTransientWindow == 0 {
		opts.MaxTransientWindow = 400
	}
	if opts.StepLimit == 0 {
		opts.StepLimit = 100_000_000
	}
	return opts
}

// New builds a machine.
func New(opts Options) *Machine {
	m := &Machine{}
	initMachine(m, opts, nil, nil)
	return m
}

// initMachine builds a machine in place. When harts and phrs are non-nil
// they provide arena-backed storage for the hart records and their path
// history registers (NewBatch lays K lanes' hot state out contiguously);
// otherwise each is allocated individually.
func initMachine(m *Machine, opts Options, harts []Hart, phrs []phr.Reg) {
	opts = normalizeOptions(opts)
	if opts.Harts > 2 {
		panic("cpu: at most two SMT harts per core")
	}
	*m = Machine{
		BPU:    bpu.NewUnit(opts.Arch),
		Mem:    NewMemory(),
		Data:   cache.NewDefault(),
		opts:   opts,
		noise:  splitmix64{s: uint64(opts.Seed)*2654435761 + 1},
		perPC:  make(map[uint64]*BranchStat),
		progs:  make(map[*isa.Program]*progState),
		kstubs: make(map[int64]string),
		estubs: make(map[int64]string),
	}
	m.cbp = m.BPU.CBP
	if opts.NewPredictor != nil {
		m.cbp = opts.NewPredictor(opts.Arch)
	}
	if opts.Faults != nil && opts.Faults.Enabled() {
		m.inj = faultinject.NewInjector(*opts.Faults, opts.Seed)
	}
	for i := 0; i < opts.Harts; i++ {
		h := &Hart{}
		if harts != nil {
			h = &harts[i]
			*h = Hart{}
		}
		reg := phr.New(opts.Arch.PHRSize)
		if phrs != nil {
			phrs[i] = *reg
			reg = &phrs[i]
		}
		h.ID = i
		h.PHR = reg
		h.rng = splitmix64{s: uint64(opts.Seed) + uint64(i)*0x632be59bd9b4e019 + 7}
		h.machine = m
		m.harts = append(m.harts, h)
	}
}

// Recycle resets the machine to the state New(opts) would produce while
// reusing its large allocations: cache arrays, predictor tables, memory
// pages, decoded-program state and any attack templates attached to Aux.
// The sharded harness drivers keep idle machines in a process-wide pool and
// recycle one before every trial attempt, so after the first few jobs they
// build no machines, without weakening the determinism contract — a
// recycled machine must be observationally identical to a fresh one (the
// golden, Parallelism-invariance and machine-reuse tests pin exactly that).
//
// opts must describe the same microarchitecture and hart count the machine
// was built with, and neither the machine nor opts may use a custom
// NewPredictor (an oracle's state cannot be reset generically); Recycle
// panics otherwise.
func (m *Machine) Recycle(opts Options) {
	opts = normalizeOptions(opts)
	if opts.Arch.Name != m.opts.Arch.Name || opts.Arch.PHRSize != m.opts.Arch.PHRSize {
		panic("cpu: recycle across microarchitectures")
	}
	if opts.Harts != len(m.harts) {
		panic("cpu: recycle with a different hart count")
	}
	if opts.NewPredictor != nil || m.opts.NewPredictor != nil {
		panic("cpu: recycle with a custom predictor")
	}
	m.opts = opts
	m.syncOK = false
	m.BPU.Reset()
	m.Mem.Reset()
	m.Data.Reset()
	m.IBRS = false
	m.TraceTaken = nil
	m.noise = splitmix64{s: uint64(opts.Seed)*2654435761 + 1}
	// Rebuild the injector rather than diffing profiles: it is two words of
	// state, and a rebuilt injector is exactly what New would have produced.
	m.inj = nil
	if opts.Faults != nil && opts.Faults.Enabled() {
		m.inj = faultinject.NewInjector(*opts.Faults, opts.Seed)
	}
	m.stats = Counters{}
	// Zero branch stats in place: decoded-program statRefs keep pointing at
	// live objects, and a zeroed stat reads the same as an absent one.
	for _, s := range m.perPC {
		*s = BranchStat{}
	}
	clear(m.kstubs)
	clear(m.estubs)
	for i, h := range m.harts {
		h.PHR.Clear()
		h.Domain = User
		h.regs = [isa.NumRegs]uint64{}
		h.vregs = [isa.NumVRegs][16]byte{}
		h.ready = [isa.NumRegs]uint64{}
		h.stack = h.stack[:0]
		h.rng = splitmix64{s: uint64(opts.Seed) + uint64(i)*0x632be59bd9b4e019 + 7}
	}
}

// RecycleRestore is Recycle(opts) followed by RestoreFrom(s), fused so the
// intermediate power-on reset is skipped: every structure Recycle would
// reset and RestoreFrom would then overwrite (predictors, cache, hart
// state, stats, noise, IBRS) is written once by the restore, and — the
// point of the fusion — the predictor/cache dirty bitmaps keep describing
// only the previous trial's footprint, so a machine in restore-sync with s
// rewinds via the dirty-only copies instead of a full-table pass. A
// harness trial that starts from a shared warm snapshot takes its pooled
// machine this way; the equivalence test pins that the fused result is
// bit-identical to the sequential one.
//
// Validation and panics match Recycle plus RestoreFrom. As with the pair,
// follow with Reseed to move the PRNG streams to the trial's seed.
func (m *Machine) RecycleRestore(opts Options, s *Snapshot) {
	opts = normalizeOptions(opts)
	if opts.Arch.Name != m.opts.Arch.Name || opts.Arch.PHRSize != m.opts.Arch.PHRSize {
		panic("cpu: recycle across microarchitectures")
	}
	if opts.Harts != len(m.harts) {
		panic("cpu: recycle with a different hart count")
	}
	if opts.NewPredictor != nil || m.opts.NewPredictor != nil {
		panic("cpu: recycle with a custom predictor")
	}
	// Only the state RestoreFrom does not cover: options, memory, the trace
	// hook, the injector rebuild and the stub registrations. Everything else
	// Recycle resets is overwritten wholesale by RestoreFrom.
	m.opts = opts
	m.Mem.Reset()
	m.TraceTaken = nil
	m.inj = nil
	if opts.Faults != nil && opts.Faults.Enabled() {
		m.inj = faultinject.NewInjector(*opts.Faults, opts.Seed)
	}
	clear(m.kstubs)
	clear(m.estubs)
	m.RestoreFrom(s)
}

// ForgetRestoreSync drops the restore-sync marker, forcing the next
// RestoreFrom onto the full-copy path (which re-establishes sync).
// Benchmarks use it to measure the flat restore against the dirty one.
func (m *Machine) ForgetRestoreSync() { m.syncOK = false }

// Hart returns logical core i.
func (m *Machine) Hart(i int) *Hart { return m.harts[i] }

// NumHarts returns the hart count.
func (m *Machine) NumHarts() int { return len(m.harts) }

// Arch returns the modeled microarchitecture.
func (m *Machine) Arch() bpu.Config { return m.opts.Arch }

// Predictor returns the conditional branch predictor this machine drives:
// the shared Unit's CBP unless Options.NewPredictor substituted another
// implementation.
func (m *Machine) Predictor() bpu.Predictor { return m.cbp }

// Stats returns the counters accumulated since the last ResetStats.
func (m *Machine) Stats() Counters { return m.stats }

// Branch returns the accumulated stats for the branch at pc.
func (m *Machine) Branch(pc uint64) BranchStat {
	if s := m.perPC[pc]; s != nil {
		return *s
	}
	return BranchStat{}
}

// ResetStats clears counters and per-branch stats. Predictor and cache
// state — the microarchitectural attack surface — is deliberately left
// untouched. Existing BranchStat values are zeroed in place rather than
// dropped so the decoded-program stat references stay valid across the
// frequent reset/run/measure cycles of the attack primitives.
func (m *Machine) ResetStats() {
	m.stats = Counters{}
	for _, s := range m.perPC {
		*s = BranchStat{}
	}
}

// RegisterKernelStub maps a syscall number to the label of its handler in
// the program. The handler runs in the kernel domain and returns with RET.
func (m *Machine) RegisterKernelStub(num int64, label string) { m.kstubs[num] = label }

// RegisterEnclaveStub maps an enclave call number to its handler label.
func (m *Machine) RegisterEnclaveStub(num int64, label string) { m.estubs[num] = label }

// Run executes prog from entry on hart 0 until HALT or a return from the
// entry frame.
func (m *Machine) Run(prog *isa.Program, entry string) error {
	return m.RunOn(0, prog, entry)
}

// RunOn executes prog from the entry label on the given hart. The entry is
// treated as a call: a RET with an empty stack ends the run like HALT.
func (m *Machine) RunOn(hartID int, prog *isa.Program, entry string) error {
	h := m.harts[hartID]
	addr, ok := prog.SymbolAddr(entry)
	if !ok {
		return fmt.Errorf("cpu: no symbol %q", entry)
	}
	idx, ok := prog.IndexOf(addr)
	if !ok {
		return fmt.Errorf("cpu: symbol %q resolves to a gap", entry)
	}
	m.stats.Runs++
	h.stack = h.stack[:0]
	if m.inj != nil {
		// Run boundaries are where context switches land: the injector may
		// fold an attacker-invisible branch burst or a one-doublet slip into
		// the hart's history before the first instruction executes.
		m.inj.RunBoundary(h.PHR)
	}
	if m.denseEligible() {
		return m.execDense(h, prog, idx)
	}
	return m.exec(h, prog, idx)
}

// access routes one data-cache access through the fault-injection layer:
// eviction pressure may knock out a pseudo-random line afterwards, and the
// observed latency may jitter by a few cycles. Without an armed injector it
// is exactly m.Data.Access.
func (m *Machine) access(addr uint64) int {
	lat, _ := m.Data.Access(addr)
	if m.inj != nil {
		if r, ok := m.inj.CacheEvict(); ok {
			m.Data.EvictNth(r)
		}
		lat = m.inj.JitterLatency(lat)
	}
	return lat
}

func (m *Machine) branchStat(pc uint64) *BranchStat {
	s := m.perPC[pc]
	if s == nil {
		s = &BranchStat{}
		m.perPC[pc] = s
	}
	return s
}

// takenBranch applies the PHR update shared by every taken branch and
// keeps the BTB warm for direct branches.
func (m *Machine) takenBranch(h *Hart, pc, target uint64, direct bool) {
	if m.TraceTaken != nil {
		m.TraceTaken(pc, target)
	}
	h.PHR.UpdateBranch(pc, target)
	if m.inj != nil {
		// Context switches land at asynchronous points during execution: the
		// injector may fold a burst of attacker-invisible branches into the
		// PHR right here, between this branch and the next.
		m.inj.BranchEvent(h.PHR)
	}
	m.stats.TakenBranches++
	if direct {
		m.BPU.BTB.Insert(pc, target)
	} else {
		m.BPU.IBP.Insert(pc, h.PHR, target)
	}
}

func (m *Machine) exec(h *Hart, prog *isa.Program, idx int) error {
	ps := m.progState(prog)
	steps := uint64(0)
	for {
		if idx < 0 || idx >= len(prog.Instrs) {
			return fmt.Errorf("cpu: execution ran off the program (index %d)", idx)
		}
		if steps >= m.opts.StepLimit {
			return fmt.Errorf("cpu: step limit %d exceeded at %#x", m.opts.StepLimit, prog.Instrs[idx].Addr)
		}
		steps++
		m.stats.Instructions++
		m.stats.Cycles++
		in := &prog.Instrs[idx]

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			return nil

		case isa.MOVI:
			h.regs[in.Rd] = uint64(in.Imm)
			h.ready[in.Rd] = m.stats.Cycles
		case isa.MOV:
			h.regs[in.Rd] = h.regs[in.Rs]
			h.ready[in.Rd] = maxu(m.stats.Cycles, h.ready[in.Rs])
		case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL:
			h.regs[in.Rd] = alu(in.Op, h.regs[in.Rs], h.regs[in.Rt])
			h.ready[in.Rd] = maxu(m.stats.Cycles, maxu(h.ready[in.Rs], h.ready[in.Rt]))
		case isa.ADDI:
			h.regs[in.Rd] = h.regs[in.Rs] + uint64(in.Imm)
			h.ready[in.Rd] = maxu(m.stats.Cycles, h.ready[in.Rs])
		case isa.XORI:
			h.regs[in.Rd] = h.regs[in.Rs] ^ uint64(in.Imm)
			h.ready[in.Rd] = maxu(m.stats.Cycles, h.ready[in.Rs])
		case isa.SHLI:
			h.regs[in.Rd] = h.regs[in.Rs] << uint64(in.Imm)
			h.ready[in.Rd] = maxu(m.stats.Cycles, h.ready[in.Rs])
		case isa.SHRI:
			h.regs[in.Rd] = h.regs[in.Rs] >> uint64(in.Imm)
			h.ready[in.Rd] = maxu(m.stats.Cycles, h.ready[in.Rs])

		case isa.LD, isa.LDB, isa.TIMEDLD:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			lat := m.access(addr)
			switch in.Op {
			case isa.LD:
				h.regs[in.Rd] = m.Mem.Read64(addr)
			case isa.LDB:
				h.regs[in.Rd] = uint64(m.Mem.Read8(addr))
			case isa.TIMEDLD:
				h.regs[in.Rd] = uint64(lat)
			}
			h.ready[in.Rd] = m.stats.Cycles + uint64(lat)
		case isa.ST:
			m.access(h.regs[in.Rs] + uint64(in.Imm))
			m.Mem.Write64(h.regs[in.Rs]+uint64(in.Imm), h.regs[in.Rt])
		case isa.STB:
			m.access(h.regs[in.Rs] + uint64(in.Imm))
			m.Mem.Write8(h.regs[in.Rs]+uint64(in.Imm), byte(h.regs[in.Rt]))
		case isa.CLFLUSH:
			m.Data.Flush(h.regs[in.Rs] + uint64(in.Imm))

		case isa.RAND:
			h.regs[in.Rd] = h.rng.next()
			h.ready[in.Rd] = m.stats.Cycles
		case isa.RDCYCLE:
			h.regs[in.Rd] = m.stats.Cycles
			h.ready[in.Rd] = m.stats.Cycles

		case isa.VLD:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			h.vregs[in.Vd] = m.Mem.Read128(addr)
		case isa.VST:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			m.Mem.Write128(addr, h.vregs[in.Vd])
		case isa.VXOR:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			h.vregs[in.Vd] = aes.XorBlocks(h.vregs[in.Vd], m.Mem.Read128(addr))
		case isa.AESENC:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			h.vregs[in.Vd] = aes.EncRound(h.vregs[in.Vd], m.Mem.Read128(addr))
		case isa.AESENCLAST:
			addr := h.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			h.vregs[in.Vd] = aes.EncLastRound(h.vregs[in.Vd], m.Mem.Read128(addr))

		case isa.BR:
			taken := in.Cond.Eval(h.regs[in.Rs], h.regs[in.Rt])
			pred := m.cbp.Predict(in.Addr, h.PHR)
			ref := &ps.stats[idx]
			if ref.s == nil || ref.addr != in.Addr {
				ref.addr, ref.s = in.Addr, m.branchStat(in.Addr)
			}
			st := ref.s
			st.Executed++
			m.stats.CondBranches++
			if taken {
				st.Taken++
			}
			if pred.Taken != taken {
				st.Mispredicted++
				m.stats.Mispredicts++
				m.speculate(h, prog, idx, pred.Taken)
				m.stats.Cycles += uint64(m.opts.MispredictPenalty)
			}
			if m.inj == nil {
				m.cbp.Update(in.Addr, h.PHR, taken, pred)
			} else if pc, ok := m.inj.TrainingTarget(in.Addr); ok {
				// The injector may drop the training update (counter decay)
				// or land it on an aliased PC (destructive interference).
				m.cbp.Update(pc, h.PHR, taken, pred)
			}
			if taken {
				m.takenBranch(h, in.Addr, in.Target, true)
				ti := int(in.TargetIdx)
				if ti < 0 {
					var err error
					if ti, err = targetIndex(prog, in, "branch"); err != nil {
						return err
					}
				}
				idx = ti
				continue
			}

		case isa.JMP:
			m.takenBranch(h, in.Addr, in.Target, true)
			ti := int(in.TargetIdx)
			if ti < 0 {
				var err error
				if ti, err = targetIndex(prog, in, "jmp"); err != nil {
					return err
				}
			}
			idx = ti
			continue

		case isa.CALL:
			if idx+1 >= len(prog.Instrs) {
				return fmt.Errorf("cpu: call at %#x has no return point", in.Addr)
			}
			h.stack = append(h.stack, frame{retIdx: idx + 1})
			m.takenBranch(h, in.Addr, in.Target, true)
			ti := int(in.TargetIdx)
			if ti < 0 {
				var err error
				if ti, err = targetIndex(prog, in, "call"); err != nil {
					return err
				}
			}
			idx = ti
			continue

		case isa.RET:
			if len(h.stack) == 0 {
				return nil // return from the entry frame ends the run
			}
			f := h.stack[len(h.stack)-1]
			h.stack = h.stack[:len(h.stack)-1]
			if f.restoreDomain {
				h.Domain = f.prevDomain
			}
			if f.retIdx < 0 || f.retIdx >= len(prog.Instrs) {
				return nil
			}
			m.takenBranch(h, in.Addr, prog.Instrs[f.retIdx].Addr, false)
			idx = f.retIdx
			continue

		case isa.JR:
			target := h.regs[in.Rs]
			ti, ok := prog.IndexOf(target)
			if !ok {
				return fmt.Errorf("cpu: jr at %#x to hole %#x", in.Addr, target)
			}
			m.takenBranch(h, in.Addr, target, false)
			idx = ti
			continue

		case isa.SYSCALL, isa.EENTER:
			ti, err := m.enterStub(h, prog, idx, in.Op, in.Imm, in.Addr)
			if err != nil {
				return err
			}
			idx = ti
			continue

		case isa.IBPB:
			m.BPU.IBPB()

		default:
			return fmt.Errorf("cpu: unimplemented op %v at %#x", in.Op, in.Addr)
		}
		idx++
	}
}

// enterStub performs a SYSCALL/EENTER domain transfer: it resolves the
// registered stub, pushes a domain-restoring frame and switches the hart's
// domain. Both the scalar and the dense engine call it, so the (cold)
// transfer semantics and error strings cannot drift between them. It
// returns the stub's program index.
func (m *Machine) enterStub(h *Hart, prog *isa.Program, idx int, op isa.Op, imm int64, pc uint64) (int, error) {
	stubs, dom := m.kstubs, Kernel
	if op == isa.EENTER {
		stubs, dom = m.estubs, Enclave
	}
	label, ok := stubs[imm]
	if !ok {
		return 0, fmt.Errorf("cpu: no stub registered for %s %d", op, imm)
	}
	addr, ok := prog.SymbolAddr(label)
	if !ok {
		return 0, fmt.Errorf("cpu: stub label %q missing from program", label)
	}
	ti, ok := prog.IndexOf(addr)
	if !ok {
		return 0, fmt.Errorf("cpu: stub label %q resolves to a hole", label)
	}
	if idx+1 >= len(prog.Instrs) {
		return 0, fmt.Errorf("cpu: %s at %#x has no return point", op, pc)
	}
	h.stack = append(h.stack, frame{retIdx: idx + 1, restoreDomain: true, prevDomain: h.Domain})
	if op == isa.SYSCALL && m.IBRS {
		// IBRS restricts indirect speculation in the more privileged
		// mode; modeled as flushing indirect predictors on entry.
		// The CBP and PHR are untouched (§7.4).
		m.BPU.IBP.Flush()
		m.BPU.BTB.Flush()
	}
	h.Domain = dom
	// The transfer itself is not PHR-visible; the stub's branches are.
	return ti, nil
}

// targetIndex resolves a direct control transfer to its program index using
// the assembler's pre-resolved TargetIdx, falling back to the address map
// for hand-built Instr values.
// targetIndex resolves a direct transfer's program index. The TargetIdx
// fast path is duplicated at the call sites so the hot dispatch stays
// inlinable; this slow path covers hand-built Instr values only.
func targetIndex(prog *isa.Program, in *isa.Instr, kind string) (int, error) {
	if ti := int(in.TargetIdx); ti >= 0 {
		return ti, nil
	}
	ti, ok := prog.IndexOf(in.Target)
	if !ok {
		return 0, fmt.Errorf("cpu: %s at %#x to hole %#x", kind, in.Addr, in.Target)
	}
	return ti, nil
}

func alu(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.MUL:
		return a * b
	}
	panic("cpu: not an ALU op")
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
