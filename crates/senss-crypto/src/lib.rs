//! From-scratch cryptographic substrate for the SENSS reproduction.
//!
//! The SENSS paper (HPCA 2005) builds its bus-encryption and bus-authentication
//! schemes out of a small set of primitives: the AES block cipher, the Cipher
//! Block Chaining (CBC) mode and its MAC variant, one-time-pad (OTP) XOR
//! encryption, and — for the integrated memory-protection system — a
//! cryptographic hash. This crate implements all of them from scratch (no
//! external crypto crates), plus:
//!
//! * [`gcm`] — the Galois/Counter Mode the paper cites (§4.3 *Implications*)
//!   as the single-pass alternative to running AES twice per block,
//! * [`rsa`] — a toy RSA used to model per-processor public/private key pairs
//!   for program dispatch (§4.1),
//! * [`engine`] — a *timing model* of the pipelined hardware AES unit
//!   (80-cycle latency, bus-matched throughput, §7.1) used by the simulator.
//!
//! Functional correctness is established against FIPS-197 / NIST known-answer
//! vectors in each module's tests.
//!
//! # Example
//!
//! ```
//! use senss_crypto::aes::Aes;
//! use senss_crypto::Block;
//!
//! let key = [0u8; 16];
//! let aes = Aes::new_128(&key);
//! let pt = Block::from([0x42u8; 16]);
//! let ct = aes.encrypt_block(pt);
//! assert_eq!(aes.decrypt_block(ct), pt);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aes;
pub mod block;
pub mod cbc;
pub mod engine;
pub mod gcm;
pub mod mac;
pub mod otp;
pub mod rng;
pub mod rsa;
pub mod sha256;

pub use block::Block;

/// Error type for cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Input length is not a multiple of the cipher block size.
    BadLength {
        /// The offending length in bytes.
        len: usize,
    },
    /// A key of unsupported size was supplied.
    BadKeySize {
        /// The offending key size in bytes.
        len: usize,
    },
    /// Authentication tag verification failed.
    TagMismatch,
    /// A message larger than the RSA modulus was supplied.
    MessageTooLarge,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadLength { len } => {
                write!(f, "input length {len} is not a multiple of the block size")
            }
            CryptoError::BadKeySize { len } => write!(f, "unsupported key size of {len} bytes"),
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::MessageTooLarge => write!(f, "message does not fit in the RSA modulus"),
        }
    }
}

impl std::error::Error for CryptoError {}
