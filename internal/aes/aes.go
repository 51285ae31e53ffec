// Package aes is a from-scratch implementation of AES-128/192/256 built
// around the round-level primitives of the AES-NI instruction set:
// EncRound (aesenc) and EncLastRound (aesenclast) operate on a 16-byte
// state exactly as the hardware instructions do, so the simulated victim
// of the Pathfinder §9 attack computes real ciphertexts and the leaked
// reduced-round values obey real AES algebra.
//
// The state is the standard FIPS-197 column-major block layout: byte i of
// the block is state row i%4, column i/4.
//
// Beyond encryption the package implements the attack-side cryptanalysis:
// recovery of reduced-round ciphertexts' ground truth (ReducedEncrypt),
// inversion of the AES-128 key schedule from any single round key, and
// differential recovery of the master key from "skip-loop" leaks
// (RecoverKeyFromLeaks), the analogue of the two-round key extraction of
// Shivakumar et al. used by the paper.
package aes

import "fmt"

// Block is a 16-byte AES state or key block.
type Block = [16]byte

var (
	sbox    [256]byte
	invSbox [256]byte
)

// gmul multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1.
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// ginv returns the multiplicative inverse in GF(2^8), with ginv(0) = 0.
func ginv(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^254 = a^-1 in GF(2^8).
	r := byte(1)
	x := a
	for e := 254; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = gmul(r, x)
		}
		x = gmul(x, x)
	}
	return r
}

func init() {
	// Build the S-box from first principles: multiplicative inverse
	// followed by the FIPS-197 affine transform.
	for i := 0; i < 256; i++ {
		x := ginv(byte(i))
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		invSbox[y] = byte(i)
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// SubBytes applies the S-box to every state byte.
func SubBytes(s Block) Block {
	for i := range s {
		s[i] = sbox[s[i]]
	}
	return s
}

// InvSubBytes applies the inverse S-box.
func InvSubBytes(s Block) Block {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
	return s
}

// ShiftRows rotates row r of the state left by r.
func ShiftRows(s Block) Block {
	var o Block
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			o[r+4*c] = s[r+4*((c+r)%4)]
		}
	}
	return o
}

// InvShiftRows rotates row r right by r.
func InvShiftRows(s Block) Block {
	var o Block
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			o[r+4*((c+r)%4)] = s[r+4*c]
		}
	}
	return o
}

// xtime multiplies by x (that is, 2) in GF(2^8).
func xtime(a byte) byte { return a<<1 ^ (a>>7)*0x1b }

// MixColumns applies the MDS matrix to each column. Row 0 of the matrix is
// 2·a0 ^ 3·a1 ^ a2 ^ a3 = a0 ^ t ^ 2·(a0^a1) with t = a0^a1^a2^a3, and the
// other rows rotate it, so a column takes four xtimes instead of eight
// general multiplies.
func MixColumns(s Block) Block {
	var o Block
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		t := a0 ^ a1 ^ a2 ^ a3
		o[4*c] = a0 ^ t ^ xtime(a0^a1)
		o[4*c+1] = a1 ^ t ^ xtime(a1^a2)
		o[4*c+2] = a2 ^ t ^ xtime(a2^a3)
		o[4*c+3] = a3 ^ t ^ xtime(a3^a0)
	}
	return o
}

// InvMixColumns applies the inverse MDS matrix.
func InvMixColumns(s Block) Block {
	var o Block
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		o[4*c] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9)
		o[4*c+1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13)
		o[4*c+2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11)
		o[4*c+3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14)
	}
	return o
}

// XorBlocks returns a ^ b.
func XorBlocks(a, b Block) Block {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// EncRound is the aesenc instruction: one full AES round.
func EncRound(state, roundKey Block) Block {
	return XorBlocks(MixColumns(ShiftRows(SubBytes(state))), roundKey)
}

// EncLastRound is the aesenclast instruction: the final round, without
// MixColumns.
func EncLastRound(state, roundKey Block) Block {
	return XorBlocks(ShiftRows(SubBytes(state)), roundKey)
}

// DecRound inverts EncRound (aesdec with the equivalent-inverse key is not
// modeled; DecRound takes the forward round key).
func DecRound(state, roundKey Block) Block {
	return InvSubBytes(InvShiftRows(InvMixColumns(XorBlocks(state, roundKey))))
}

// DecLastRound inverts EncLastRound.
func DecLastRound(state, roundKey Block) Block {
	return InvSubBytes(InvShiftRows(XorBlocks(state, roundKey)))
}

// RoundsForKeySize maps key bytes to round count (10/12/14).
func RoundsForKeySize(n int) (int, error) {
	switch n {
	case 16:
		return 10, nil
	case 24:
		return 12, nil
	case 32:
		return 14, nil
	}
	return 0, fmt.Errorf("aes: invalid key size %d", n)
}

// rcon returns the round constant word for iteration i (1-based).
func rcon(i int) byte {
	c := byte(1)
	for ; i > 1; i-- {
		c = gmul(c, 2)
	}
	return c
}

// ExpandKey derives the Nr+1 round keys from a 16/24/32-byte key.
func ExpandKey(key []byte) ([]Block, error) {
	nr, err := RoundsForKeySize(len(key))
	if err != nil {
		return nil, err
	}
	nk := len(key) / 4
	words := make([][4]byte, 4*(nr+1))
	for i := 0; i < nk; i++ {
		copy(words[i][:], key[4*i:4*i+4])
	}
	for i := nk; i < len(words); i++ {
		t := words[i-1]
		if i%nk == 0 {
			t = [4]byte{sbox[t[1]] ^ rcon(i/nk), sbox[t[2]], sbox[t[3]], sbox[t[0]]}
		} else if nk > 6 && i%nk == 4 {
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j := 0; j < 4; j++ {
			words[i][j] = words[i-nk][j] ^ t[j]
		}
	}
	rks := make([]Block, nr+1)
	for r := range rks {
		for w := 0; w < 4; w++ {
			copy(rks[r][4*w:4*w+4], words[4*r+w][:])
		}
	}
	return rks, nil
}

// Encrypt runs the full cipher over one block with expanded round keys.
func Encrypt(rks []Block, plaintext Block) Block {
	state := XorBlocks(plaintext, rks[0])
	for r := 1; r < len(rks)-1; r++ {
		state = EncRound(state, rks[r])
	}
	return EncLastRound(state, rks[len(rks)-1])
}

// Decrypt inverts Encrypt.
func Decrypt(rks []Block, ciphertext Block) Block {
	state := DecLastRound(ciphertext, rks[len(rks)-1])
	for r := len(rks) - 2; r >= 1; r-- {
		state = DecRound(state, rks[r])
	}
	return XorBlocks(state, rks[0])
}

// ReducedEncrypt computes the value the looped AES-NI victim produces when
// its encryption loop is speculatively exited after n full rounds
// (0 <= n <= Nr-1): the whitened state goes through n aesenc rounds and
// then the aesenclast that the early exit path applies with round key n+1.
// For n == Nr-1 this is exactly the correct ciphertext. It is the ground
// truth the §9 evaluation compares stolen bytes against.
func ReducedEncrypt(rks []Block, plaintext Block, n int) (Block, error) {
	if n < 0 || n > len(rks)-2 {
		return Block{}, fmt.Errorf("aes: reduced round count %d out of range [0,%d]", n, len(rks)-2)
	}
	state := XorBlocks(plaintext, rks[0])
	for r := 1; r <= n; r++ {
		state = EncRound(state, rks[r])
	}
	return EncLastRound(state, rks[n+1]), nil
}
