//! Textbook Reed-Solomon encoder and syndrome check, frozen.
//!
//! [`ReferenceReedSolomon`] keeps the algorithms
//! [`ReedSolomon`](super::ReedSolomon) used before it became
//! table-driven:
//!
//! * parity by polynomial long division of `m(x)·x^r` by `g(x)`, `r`
//!   log/exp field multiplies per message symbol,
//! * syndromes by `r` Horner passes over the whole codeword
//!   (80 symbols for the Bamboo block),
//! * detection as "some syndrome is nonzero".
//!
//! It exists as the referee for the codec's oracle property tests
//! (`crates/ecc/tests/oracle.rs`) and the table-vs-reference speed gate
//! (`crates/bench/benches/codec.rs`): both codes must agree on every
//! input. Like `memsim::reference`, it is deliberately left slow.

use crate::gf256::Gf256;

/// The long-division / whole-word-Horner code (see module docs).
#[derive(Debug, Clone)]
pub struct ReferenceReedSolomon {
    parity: usize,
    /// Generator polynomial, lowest degree coefficient first, monic.
    generator: Vec<Gf256>,
}

impl ReferenceReedSolomon {
    /// Builds a code with `parity` check symbols.
    ///
    /// # Panics
    ///
    /// Panics if `parity` is zero or greater than 254.
    pub fn new(parity: usize) -> ReferenceReedSolomon {
        assert!(parity > 0 && parity < 255, "parity must be in 1..=254");
        ReferenceReedSolomon {
            parity,
            generator: super::generator(parity),
        }
    }

    /// Number of parity symbols.
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Computes the `r` parity symbols for `message`.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() + parity` exceeds 255.
    pub fn parity_of(&self, message: &[u8]) -> Vec<u8> {
        assert!(
            message.len() + self.parity <= 255,
            "codeword exceeds GF(256) RS length"
        );
        // Polynomial long division of m(x)·x^r by g(x); the remainder
        // (negated — identity in char 2) is the parity.
        let mut remainder = vec![Gf256::ZERO; self.parity];
        for &byte in message {
            let factor = Gf256::new(byte) + remainder[self.parity - 1];
            // Shift left by one symbol and subtract factor·g(x).
            for i in (1..self.parity).rev() {
                remainder[i] = remainder[i - 1] + factor * self.generator[i];
            }
            remainder[0] = factor * self.generator[0];
        }
        remainder.iter().rev().map(|g| g.value()).collect()
    }

    /// Computes the syndrome vector of `message || parity`.
    pub fn syndromes(&self, message: &[u8], parity: &[u8]) -> Vec<Gf256> {
        (0..self.parity)
            .map(|j| {
                let alpha_j = Gf256::alpha_pow(j);
                // Horner evaluation of the codeword polynomial at α^j,
                // highest-degree (first message symbol) first.
                let mut acc = Gf256::ZERO;
                for &byte in message.iter().chain(parity.iter()) {
                    acc = acc * alpha_j + Gf256::new(byte);
                }
                acc
            })
            .collect()
    }

    /// Detection-only decode: `true` when some syndrome is nonzero.
    pub fn detect(&self, message: &[u8], parity: &[u8]) -> bool {
        self.syndromes(message, parity)
            .iter()
            .any(|s| *s != Gf256::ZERO)
    }
}
