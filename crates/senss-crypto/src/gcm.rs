//! AES-GCM (Galois/Counter Mode) — the paper's single-pass alternative.
//!
//! §4.3 (*Implications*) notes that chaining CBC-AES for both encryption and
//! authentication invokes AES twice per bus block, and points at GCM as a
//! newly developed algorithm that produces ciphertext and MAC with a single
//! AES invocation per block, computing the tag with GF(2¹²⁸) multiplications
//! over the counter-mode outputs. This module implements GCM from scratch
//! (GHASH included) for the functional `senss::gcm_fabric`; the timing
//! ablation is `senss_cli --cipher cbc|gcm`.
//!
//! Validated against the NIST GCM reference test vectors.

use crate::aes::Aes;
use crate::block::Block;
use crate::CryptoError;

/// Multiplies two elements of GF(2¹²⁸) under the GCM bit convention
/// (leftmost bit is the coefficient of x⁰, reduction by x¹²⁸+x⁷+x²+x+1).
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= 0xe1u128 << 120;
        }
    }
    z
}

fn block_to_u128(b: Block) -> u128 {
    u128::from_be_bytes(b.into_bytes())
}

fn u128_to_block(v: u128) -> Block {
    Block::from(v.to_be_bytes())
}

/// The GHASH universal hash over a byte string, keyed by `h`.
fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    let mut absorb = |data: &[u8]| {
        for chunk in data.chunks(16) {
            let mut padded = [0u8; 16];
            padded[..chunk.len()].copy_from_slice(chunk);
            y = gf128_mul(y ^ u128::from_be_bytes(padded), h);
        }
    };
    absorb(aad);
    absorb(ct);
    let lengths = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf128_mul(y ^ lengths, h)
}

/// AES-GCM authenticated encryption.
///
/// # Example
///
/// ```
/// use senss_crypto::aes::Aes;
/// use senss_crypto::gcm::Gcm;
///
/// let gcm = Gcm::new(Aes::new_128(&[3u8; 16]));
/// let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", b"secret bus line!");
/// let pt = gcm.decrypt(&[0u8; 12], b"", &ct, tag).unwrap();
/// assert_eq!(pt, b"secret bus line!");
/// ```
#[derive(Debug, Clone)]
pub struct Gcm {
    aes: Aes,
    h: u128,
}

impl Gcm {
    /// Creates a GCM instance over the given AES key schedule.
    pub fn new(aes: Aes) -> Gcm {
        let h = block_to_u128(aes.encrypt_block(Block::ZERO));
        Gcm { aes, h }
    }

    fn j0(&self, iv: &[u8]) -> u128 {
        if iv.len() == 12 {
            let mut j = [0u8; 16];
            j[..12].copy_from_slice(iv);
            j[15] = 1;
            u128::from_be_bytes(j)
        } else {
            ghash(self.h, &[], iv)
        }
    }

    fn ctr_xor(&self, mut counter: u128, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks(16) {
            counter = inc32(counter);
            let keystream = self.aes.encrypt_block(u128_to_block(counter));
            for (d, k) in chunk.iter().zip(keystream.as_bytes()) {
                out.push(d ^ k);
            }
        }
        out
    }

    /// Encrypts `plaintext` with additional authenticated data `aad`,
    /// returning `(ciphertext, tag)`.
    pub fn encrypt(&self, iv: &[u8], aad: &[u8], plaintext: &[u8]) -> (Vec<u8>, Block) {
        let j0 = self.j0(iv);
        let ct = self.ctr_xor(j0, plaintext);
        let s = ghash(self.h, aad, &ct);
        let tag = block_to_u128(self.aes.encrypt_block(u128_to_block(j0))) ^ s;
        (ct, u128_to_block(tag))
    }

    /// Decrypts and verifies.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if the tag does not authenticate
    /// the ciphertext.
    pub fn decrypt(
        &self,
        iv: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
        tag: Block,
    ) -> Result<Vec<u8>, CryptoError> {
        let j0 = self.j0(iv);
        let s = ghash(self.h, aad, ciphertext);
        let expect = block_to_u128(self.aes.encrypt_block(u128_to_block(j0))) ^ s;
        if !u128_to_block(expect).ct_eq(&tag) {
            return Err(CryptoError::TagMismatch);
        }
        Ok(self.ctr_xor(j0, ciphertext))
    }
}

/// Increments the low 32 bits of the counter block (GCM `inc32`).
fn inc32(counter: u128) -> u128 {
    let low = (counter as u32).wrapping_add(1);
    (counter & !0xffff_ffffu128) | low as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_test_case_1_empty() {
        let gcm = Gcm::new(Aes::new_128(&[0; 16]));
        let (ct, tag) = gcm.encrypt(&[0; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(
            tag,
            Block::from_slice(&hex("58e2fccefa7e3061367f1d57a4e7455a"))
        );
    }

    #[test]
    fn nist_test_case_2_one_block() {
        let gcm = Gcm::new(Aes::new_128(&[0; 16]));
        let (ct, tag) = gcm.encrypt(&[0; 12], b"", &[0u8; 16]);
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(
            tag,
            Block::from_slice(&hex("ab6e47d42cec13bdf53a67b21257bddf"))
        );
    }

    #[test]
    fn nist_test_case_3_four_blocks() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let gcm = Gcm::new(Aes::new_128(&key));
        let iv = hex("cafebabefacedbaddecaf888");
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let (ct, tag) = gcm.encrypt(&iv, b"", &pt);
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(
            tag,
            Block::from_slice(&hex("4d5c2af327cd64a62cf35abd2ba6fab4"))
        );
    }

    #[test]
    fn nist_test_case_4_with_aad() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let gcm = Gcm::new(Aes::new_128(&key));
        let iv = hex("cafebabefacedbaddecaf888");
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let (ct, tag) = gcm.encrypt(&iv, &aad, &pt);
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            )
        );
        assert_eq!(
            tag,
            Block::from_slice(&hex("5bc94fbc3221a5db94fae95ae7121a47"))
        );
    }

    #[test]
    fn roundtrip_and_tamper_detection() {
        let gcm = Gcm::new(Aes::new_128(&[9; 16]));
        let iv = [1u8; 12];
        let (mut ct, tag) = gcm.encrypt(&iv, b"hdr", b"the quick brown fox");
        assert_eq!(
            gcm.decrypt(&iv, b"hdr", &ct, tag).unwrap(),
            b"the quick brown fox"
        );
        ct[0] ^= 1;
        assert_eq!(
            gcm.decrypt(&iv, b"hdr", &ct, tag),
            Err(CryptoError::TagMismatch)
        );
        ct[0] ^= 1;
        assert_eq!(
            gcm.decrypt(&iv, b"xxx", &ct, tag),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn forged_tag_rejected_wherever_it_differs() {
        // The constant-time compare must still reject tags that match the
        // real one in every byte but the last (and but the first).
        let gcm = Gcm::new(Aes::new_128(&[7; 16]));
        let iv = [2u8; 12];
        let (ct, tag) = gcm.encrypt(&iv, b"", b"payload");
        for i in [0usize, 15] {
            let mut forged = tag.into_bytes();
            forged[i] ^= 0x80;
            assert_eq!(
                gcm.decrypt(&iv, b"", &ct, Block::from(forged)),
                Err(CryptoError::TagMismatch),
                "tag differing only at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn gf128_mul_commutes() {
        let a = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128;
        let b = 0xdead_beef_cafe_f00d_1234_5678_9abc_def0u128;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }

    #[test]
    fn gf128_mul_distributes() {
        let a = 0x1111_2222_3333_4444_5555_6666_7777_8888u128;
        let b = 0x9999_aaaa_bbbb_cccc_dddd_eeee_ffff_0000u128;
        let c = 0x0f0f_0f0f_0f0f_0f0f_f0f0_f0f0_f0f0_f0f0u128;
        assert_eq!(gf128_mul(a, b ^ c), gf128_mul(a, b) ^ gf128_mul(a, c));
    }
}
