//! The AES block cipher (FIPS-197), implemented from scratch.
//!
//! SENSS assumes a pipelined hardware AES unit inside every processor's
//! Security Hardware Unit. This module supplies the *functional* cipher
//! (the timing model lives in [`crate::engine`]). All three standard key
//! sizes are supported; the paper uses AES-128 (128-bit session keys, §7.1).
//!
//! The S-box and its inverse are *computed* from the GF(2⁸) field definition
//! rather than transcribed, and the implementation is validated against the
//! FIPS-197 appendix known-answer vectors in the tests below.
//!
//! # Encryption tables
//!
//! [`Aes::encrypt_block`] runs on 32-bit column words and four 256-entry
//! `u32` tables (the "T-table" formulation of FIPS-197 §5.1). For every
//! byte `x`, with `s = S(x)` from the computed S-box, `te[0][x]` packs the
//! MixColumns column `(2·s, s, s, 3·s)` big-endian, and `te[1..4]` are
//! that word rotated right by 8, 16 and 24 bits: the contribution of `x`
//! when it sits in row 1, 2 or 3. One middle round — SubBytes, ShiftRows,
//! MixColumns, AddRoundKey — is then four table lookups and five XORs per
//! column; the last round (no MixColumns) looks up the S-box directly.
//! The tables are derived once, at first use, alongside the S-box. The
//! byte-wise forward round functions exist only in the tests, as the
//! reference the tables are checked against; decryption runs the
//! byte-wise inverse rounds.
//!
//! The table lookups are indexed by secret state bytes exactly like the
//! S-box lookups they replace, so their cache footprint depends on the key
//! and the data. This is a functional model of the SHU's cipher and is not
//! hardened against cache-timing side channels.

use std::sync::OnceLock;

use crate::block::{Block, BLOCK_SIZE};

/// Number of 32-bit words in an AES state (always 4).
const NB: usize = 4;

/// Round count of the largest key size (AES-256).
const MAX_ROUNDS: usize = 14;

/// Multiplies two elements of GF(2⁸) with the AES reduction polynomial
/// x⁸ + x⁴ + x³ + x + 1 (0x11b).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); `inv(0) = 0` by AES convention.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8); square-and-multiply over the 8-bit exponent.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// `te[row][x]`: the output column that input byte `x` in `row`
    /// contributes to one SubBytes + MixColumns step, as a big-endian word.
    te: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, entry) in sbox.iter_mut().enumerate() {
            let inv = gf_inv(i as u8);
            // Affine transformation: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
            let s = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            *entry = s;
            inv_sbox[s as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        for (x, &s) in sbox.iter().enumerate() {
            let col = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            for (row, table) in te.iter_mut().enumerate() {
                table[x] = col.rotate_right(8 * row as u32);
            }
        }
        Tables { sbox, inv_sbox, te }
    })
}

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds (the size SENSS uses).
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Number of cipher rounds.
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }
}

/// An AES cipher instance with a fully expanded key schedule.
///
/// # Example
///
/// ```
/// use senss_crypto::aes::Aes;
/// use senss_crypto::Block;
///
/// let aes = Aes::new_128(&[7u8; 16]);
/// let ct = aes.encrypt_block(Block::from([1u8; 16]));
/// assert_eq!(aes.decrypt_block(ct), Block::from([1u8; 16]));
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Round keys as big-endian column words; rounds past
    /// `key_size.rounds()` stay zero.
    round_keys: [[u32; NB]; MAX_ROUNDS + 1],
    key_size: KeySize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes")
            .field("key_size", &self.key_size)
            .field("rounds", &self.key_size.rounds())
            .finish()
    }
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Aes {
        Aes::expand(key, KeySize::Aes128)
    }

    /// Creates an AES-192 instance.
    pub fn new_192(key: &[u8; 24]) -> Aes {
        Aes::expand(key, KeySize::Aes192)
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Aes {
        Aes::expand(key, KeySize::Aes256)
    }

    /// Creates an instance from a key slice of any supported size.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::BadKeySize`] if `key` is not 16, 24 or
    /// 32 bytes long.
    pub fn from_key(key: &[u8]) -> Result<Aes, crate::CryptoError> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            len => return Err(crate::CryptoError::BadKeySize { len }),
        };
        Ok(Aes::expand(key, size))
    }

    /// The key size this instance was constructed with.
    pub fn key_size(&self) -> KeySize {
        self.key_size
    }

    fn expand(key: &[u8], size: KeySize) -> Aes {
        let nk = size.key_len() / 4;
        let nr = size.rounds();
        let t = tables();
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| t.sbox[b as usize]));
        let total_words = NB * (nr + 1);
        let mut w = [0u32; NB * (MAX_ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            *word = u32::from_be_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let mut rcon = 0x01u8;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u32; NB]; MAX_ROUNDS + 1];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(NB)) {
            rk.copy_from_slice(words);
        }
        Aes {
            round_keys,
            key_size: size,
        }
    }

    /// Encrypts a single 128-bit block.
    pub fn encrypt_block(&self, block: Block) -> Block {
        let t = tables();
        let te = &t.te;
        let rk = &self.round_keys;
        let nr = self.key_size.rounds();
        let b = block.into_bytes();
        let col =
            |c: usize| u32::from_be_bytes([b[4 * c], b[4 * c + 1], b[4 * c + 2], b[4 * c + 3]]);
        let (mut s0, mut s1, mut s2, mut s3) = (
            col(0) ^ rk[0][0],
            col(1) ^ rk[0][1],
            col(2) ^ rk[0][2],
            col(3) ^ rk[0][3],
        );
        // Output column c takes row r from input column c + r (ShiftRows).
        let round = |a: u32, b: u32, c: u32, d: u32, k: u32| {
            te[0][(a >> 24) as usize]
                ^ te[1][(b >> 16) as u8 as usize]
                ^ te[2][(c >> 8) as u8 as usize]
                ^ te[3][d as u8 as usize]
                ^ k
        };
        for k in &rk[1..nr] {
            (s0, s1, s2, s3) = (
                round(s0, s1, s2, s3, k[0]),
                round(s1, s2, s3, s0, k[1]),
                round(s2, s3, s0, s1, k[2]),
                round(s3, s0, s1, s2, k[3]),
            );
        }
        let last = |a: u32, b: u32, c: u32, d: u32, k: u32| {
            u32::from_be_bytes([
                t.sbox[(a >> 24) as usize],
                t.sbox[(b >> 16) as u8 as usize],
                t.sbox[(c >> 8) as u8 as usize],
                t.sbox[d as u8 as usize],
            ]) ^ k
        };
        let k = &rk[nr];
        let mut out = [0u8; BLOCK_SIZE];
        for (dst, w) in out.chunks_exact_mut(4).zip([
            last(s0, s1, s2, s3, k[0]),
            last(s1, s2, s3, s0, k[1]),
            last(s2, s3, s0, s1, k[2]),
            last(s3, s0, s1, s2, k[3]),
        ]) {
            dst.copy_from_slice(&w.to_be_bytes());
        }
        Block(out)
    }

    /// Decrypts a single 128-bit block.
    pub fn decrypt_block(&self, block: Block) -> Block {
        let t = tables();
        let mut state = block.into_bytes();
        let nr = self.key_size.rounds();
        add_round_key(&mut state, &self.round_keys[nr]);
        for round in (1..nr).rev() {
            inv_shift_rows(&mut state);
            sub_bytes(&mut state, &t.inv_sbox);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        sub_bytes(&mut state, &t.inv_sbox);
        add_round_key(&mut state, &self.round_keys[0]);
        Block(state)
    }
}

// The AES state is stored column-major: state[4*c + r] is row r, column c,
// matching the byte order of the input block.

fn add_round_key(state: &mut [u8; 16], rk: &[u32; NB]) {
    for (col, word) in state.chunks_exact_mut(4).zip(rk) {
        for (s, k) in col.iter_mut().zip(word.to_be_bytes()) {
            *s ^= k;
        }
    }
}

fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let mut row = [0u8; 4];
        for c in 0..4 {
            row[(c + r) % 4] = state[4 * c + r];
        }
        for c in 0..4 {
            state[4 * c + r] = row[c];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        state[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        state[4 * c + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        state[4 * c + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    // The byte-wise forward round functions: the reference the
    // table-driven `encrypt_block` is checked against.

    fn shift_rows(state: &mut [u8; 16]) {
        // Row r is rotated left by r positions.
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    /// FIPS-197 §5.1 `Cipher()`, one round function at a time.
    fn encrypt_block_bytewise(aes: &Aes, block: Block) -> Block {
        let sbox = &tables().sbox;
        let mut state = block.into_bytes();
        add_round_key(&mut state, &aes.round_keys[0]);
        let nr = aes.key_size.rounds();
        for round in 1..nr {
            sub_bytes(&mut state, sbox);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &aes.round_keys[round]);
        }
        sub_bytes(&mut state, sbox);
        shift_rows(&mut state);
        add_round_key(&mut state, &aes.round_keys[nr]);
        Block(state)
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex_block(s: &str) -> Block {
        Block::from_slice(&hex(s))
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        // FIPS-197 Figure 7 spot checks.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
    }

    #[test]
    fn inv_sbox_is_inverse() {
        let t = tables();
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn gf_mul_examples() {
        // FIPS-197 §4.2: {57} x {83} = {c1}.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn gf_inv_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let pt = hex_block("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex_block("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_aes192_vector() {
        // FIPS-197 Appendix C.2.
        let key: [u8; 24] = hex("000102030405060708090a0b0c0d0e0f1011121314151617")
            .try_into()
            .unwrap();
        let aes = Aes::new_192(&key);
        let pt = hex_block("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex_block("dda97ca4864cdfe06eaf70a0ec0d7191"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3.
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        let pt = hex_block("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex_block("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn appendix_b_aes128_vector() {
        // FIPS-197 Appendix B worked example.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let pt = hex_block("3243f6a8885a308d313198a2e0370734");
        assert_eq!(
            aes.encrypt_block(pt),
            hex_block("3925841d02dc09fbdc118597196a0b32")
        );
    }

    #[test]
    fn from_key_rejects_bad_sizes() {
        assert!(matches!(
            Aes::from_key(&[0u8; 15]),
            Err(crate::CryptoError::BadKeySize { len: 15 })
        ));
        assert!(Aes::from_key(&[0u8; 16]).is_ok());
        assert!(Aes::from_key(&[0u8; 24]).is_ok());
        assert!(Aes::from_key(&[0u8; 32]).is_ok());
    }

    #[test]
    fn debug_hides_key_material() {
        let aes = Aes::new_128(&[0x5a; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("5a"), "debug output must not leak key bytes");
        assert!(dbg.contains("Aes128"));
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes::new_128(&[1; 16]);
        let b = Aes::new_128(&[2; 16]);
        let pt = Block::from([9; 16]);
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    /// The table-driven cipher matches the byte-wise round functions,
    /// and decryption inverts it, on 12 000 random (key, block) pairs
    /// across all three key sizes.
    #[test]
    fn table_encrypt_matches_bytewise_rounds() {
        let mut rng = SplitMix64::new(0xAE5_7AB1E);
        for key_len in [16, 24, 32] {
            for _ in 0..40 {
                let mut key = vec![0u8; key_len];
                rng.fill_bytes(&mut key);
                let aes = Aes::from_key(&key).expect("valid key size");
                for _ in 0..100 {
                    let pt = Block::from_words(rng.next_u64(), rng.next_u64());
                    let ct = aes.encrypt_block(pt);
                    let want = encrypt_block_bytewise(&aes, pt);
                    assert_eq!(ct, want, "{key_len}-byte key, {pt:?}");
                    assert_eq!(aes.decrypt_block(ct), pt);
                }
            }
        }
    }
}
