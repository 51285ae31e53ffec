// Package victim provides the victim programs the paper attacks, compiled
// to the simulated ISA: the looped AES-NI encryption oracle of §9
// (Listing 1 / Figure 6), the libjpeg-style IDCT of §8 (Listing 2), kernel
// and SGX stubs for the attack-surface analysis of §7, and microbenchmarks
// for the Pathfinder evaluation of §6.
//
// Victim code only uses registers R0..R15; the attack harnesses in package
// core reserve R20 and above.
package victim

import (
	"fmt"
	"math/bits"

	"pathfinder/internal/aes"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
)

// Memory layout of the AES encryption oracle. The round keys and round
// count model the AES_KEY structure of Intel IPP; the probe pages model the
// oracle's base64-encoding tables, shared with the attacker (§9.2).
const (
	AESKeySchedule = 0x0020_0000 // 15 × 16-byte round keys
	AESRounds      = 0x0020_1000 // uint64: 10/12/14 (the flushable variable)
	AESPlaintext   = 0x0020_2000 // 16-byte input block
	AESCiphertext  = 0x0020_3000 // 16-byte output block
	// AESProbeBase is the bottom of 16 per-byte-position probe regions,
	// each 256 pages: the encoding gadget touches
	// AESProbeBase + pos*AESProbeRange + value*AESProbeSlot for every output
	// byte. The 4,096 slots are one array at a 4 KiB (64-line) stride, so
	// in the default 4,096-set cache they map to only 64 sets.
	AESProbeBase  = 0x1000_0000
	AESProbeSlot  = 4096
	AESProbeRange = 256 * AESProbeSlot
)

// AESVictim returns the looped AES encryption oracle. Its structure follows
// Figure 6: BB1 loads the round count and whitens the state, with a bounds
// check that skips the loop for single-round keys; BB3 is the aesenc loop;
// BB4 recomputes the round-key pointer from the loop counter; BB5 applies
// aesenclast, stores the ciphertext and runs the encoding gadget that
// touches ciphertext-dependent cache lines.
//
// Labels exported for the attack: aes_entry, aes_entrycheck (the BB1->BB5
// bounds check), aes_loopbr (the BB3 loop branch), aes_exit.
func AESVictim() core.Victim {
	return core.Victim{
		Entry: "aes_entry",
		Emit:  emitAES,
	}
}

func emitAES(a *isa.Assembler) {
	a.VariableStride()   // x86-like code density gives branch footprints entropy
	a.Label("aes_entry") // BB1
	a.MovI(isa.R2, AESKeySchedule)
	a.MovI(isa.R3, AESPlaintext)
	a.MovI(isa.R4, AESCiphertext)
	a.MovI(isa.R11, AESRounds)
	a.Ld(isa.R1, isa.R11, 0) // rcx <- key->rounds (flushed by the attacker)
	a.VLd(isa.V0, isa.R3, 0)
	a.VXor(isa.V0, isa.R2, 0) // whitening with rk[0]
	a.MovI(isa.R5, 1)         // rax = 1
	a.Label("aes_entrycheck")
	a.Br(isa.GEU, isa.R5, isa.R1, "aes_exit") // cmp rcx,1; jbe .exit

	a.Label("aes_loop") // BB3
	a.ShlI(isa.R6, isa.R5, 4)
	a.Add(isa.R7, isa.R2, isa.R6)
	a.AesEnc(isa.V0, isa.R7, 0) // aesenc xmm0, rk[i]
	a.AddI(isa.R5, isa.R5, 1)
	a.Label("aes_loopbr")
	a.Br(isa.LTU, isa.R5, isa.R1, "aes_loop") // jne .loop

	a.Label("aes_exit") // BB4+BB5
	a.ShlI(isa.R6, isa.R5, 4)
	a.Add(isa.R7, isa.R2, isa.R6)
	a.AesEncLast(isa.V0, isa.R7, 0) // aesenclast xmm0, rk[i]
	a.VSt(isa.R4, 0, isa.V0)
	// Post-processing "base64 encode" gadget: a table access per
	// ciphertext byte (Listing 3's sidechannel_send). Touching one page
	// per (position, value) pair is what Flush+Reload later reads out.
	a.MovI(isa.R9, AESProbeBase)
	for b := 0; b < 16; b++ {
		a.LdB(isa.R8, isa.R4, int64(b))
		a.ShlI(isa.R8, isa.R8, 12) // value * 4096
		a.Add(isa.R8, isa.R9, isa.R8)
		a.LdB(isa.R10, isa.R8, 0)
		if b < 15 {
			a.AddI(isa.R9, isa.R9, AESProbeRange)
		}
	}
	a.Ret()
}

// AESContext holds the oracle's key material for a run.
type AESContext struct {
	Key       []byte
	RoundKeys []aes.Block
}

// NewAESContext expands a key.
func NewAESContext(key []byte) (*AESContext, error) {
	rks, err := aes.ExpandKey(key)
	if err != nil {
		return nil, err
	}
	return &AESContext{Key: append([]byte(nil), key...), RoundKeys: rks}, nil
}

// Install writes the key schedule and round count into victim memory.
func (c *AESContext) Install(m *cpu.Machine) {
	for r, rk := range c.RoundKeys {
		m.Mem.Write128(AESKeySchedule+uint64(16*r), rk)
	}
	m.Mem.Write64(AESRounds, uint64(len(c.RoundKeys)-1))
}

// SetPlaintext writes the input block.
func (c *AESContext) SetPlaintext(m *cpu.Machine, pt aes.Block) {
	m.Mem.Write128(AESPlaintext, pt)
}

// Ciphertext reads the output block.
func (c *AESContext) Ciphertext(m *cpu.Machine) aes.Block {
	return m.Mem.Read128(AESCiphertext)
}

// Encrypt runs the oracle once on the machine (architectural result only).
func (c *AESContext) Encrypt(m *cpu.Machine, prog *isa.Program, pt aes.Block) (aes.Block, error) {
	c.SetPlaintext(m, pt)
	if err := m.Run(prog, "aes_entry"); err != nil {
		return aes.Block{}, err
	}
	return c.Ciphertext(m), nil
}

// ProbeSlot returns the cache-line address the gadget touches for byte
// position pos holding value v.
func ProbeSlot(pos int, v byte) uint64 {
	return AESProbeBase + uint64(pos)*AESProbeRange + uint64(v)*AESProbeSlot
}

// aesProbeSlotCount is the number of probe slots: 16 positions × 256 values,
// slot pos*256 + v at ProbeSlot(pos, v).
const aesProbeSlotCount = 16 * 256

// FlushProbe evicts all 16×256 probe slots.
func FlushProbe(m *cpu.Machine) {
	m.Data.FlushStrided(AESProbeBase, AESProbeSlot, aesProbeSlotCount)
}

// ReadProbe reads which probe slots a reload would hit: per byte position,
// the first four hit values in ascending order and the number of hits.
func ReadProbe(m *cpu.Machine) (vals [16][4]byte, counts [16]int) {
	var hits [aesProbeSlotCount / 64]uint64
	m.Data.ResidentStrided(AESProbeBase, AESProbeSlot, aesProbeSlotCount, hits[:])
	for wi, w := range hits {
		for w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			pos := slot / 256
			if counts[pos] < 4 {
				vals[pos][counts[pos]] = byte(slot)
			}
			counts[pos]++
		}
	}
	return vals, counts
}

// VerifyAESProgram checks that the emitted oracle computes correct AES for
// the installed context; used by tests and the quickstart example.
func VerifyAESProgram(m *cpu.Machine, prog *isa.Program, c *AESContext, pt aes.Block) error {
	got, err := c.Encrypt(m, prog, pt)
	if err != nil {
		return err
	}
	want := aes.Encrypt(c.RoundKeys, pt)
	if got != want {
		return fmt.Errorf("victim: AES mismatch: got % x want % x", got, want)
	}
	return nil
}
