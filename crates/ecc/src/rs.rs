//! Systematic Reed-Solomon codes over GF(2⁸).
//!
//! The paper's Hetero-DMR uses the eight Reed-Solomon ECC bytes of a
//! 64-byte memory block (Bamboo-ECC layout) in two different decodes:
//!
//! * **detect + correct** — the conventional decode used for the
//!   always-in-spec original blocks ([`ReedSolomon::correct`], up to
//!   ⌊r/2⌋ symbol errors via Berlekamp-Massey / Chien / Forney);
//! * **detection-only** — used for the unsafely-fast copies
//!   ([`ReedSolomon::detect`]): decoding stops after the syndrome
//!   check, which detects *all* error patterns of up to `r` symbols
//!   (the code's minimum distance is `r + 1`) and fails to detect a
//!   wider pattern with probability only 2⁻⁶⁴ for r = 8.
//!
//! Hetero-DMR runs the detection-only decode on every fast read of a
//! copy, so encoding and detection are table-driven:
//!
//! * [`ReedSolomon::new`] precomputes `f·g(x)` for every byte `f`, and
//!   the parity is the remainder of a CRC-style shift register that
//!   takes one table lookup per message byte. Codes with at most eight
//!   parity symbols (the Bamboo code among them) keep the remainder in
//!   one `u64` and fold eight message bytes per step through eight
//!   tables (16 KiB), so the lookups do not wait on each other.
//! * The syndromes of `message ‖ parity` are those of the `r`-symbol
//!   residual `Δ = parity ⊕ parity_of(message)`: `(m‖p) ⊕ encode(m) =
//!   (0…0‖Δ)`, syndromes are linear, and they vanish on codewords. So
//!   Horner runs over `r` symbols instead of the whole word.
//! * [`ReedSolomon::detect`] is `parity_of(message) != parity`: Δ is
//!   nonzero exactly when some syndrome is, because a nonzero
//!   polynomial of degree below `r` cannot have all `r` roots of g(x).
//!
//! [`reference`] keeps the textbook long-division encoder and
//! whole-word syndromes; tests and the codec bench gate hold the two
//! equal.

use crate::gf256::Gf256;
use std::error::Error;
use std::fmt;

pub mod reference;

/// Code symbols per packed remainder limb.
const LIMB_SYMBOLS: usize = 8;

/// Limbs of the widest remainder (254 parity symbols).
const MAX_LIMBS: usize = 254usize.div_ceil(LIMB_SYMBOLS);

/// Outcome of a detect+correct decode that could not restore the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    /// More errors than the code can correct (locator degree exceeds
    /// ⌊r/2⌋ or the Chien search found the wrong number of roots).
    Uncorrectable,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::Uncorrectable => write!(f, "uncorrectable symbol errors"),
        }
    }
}

impl Error for RsError {}

/// A systematic Reed-Solomon encoder/decoder with `r` parity symbols.
///
/// The codeword is `message || parity`; total length must not exceed
/// 255 symbols.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    parity: usize,
    tables: Tables,
}

/// Precomputed remainders, packed little-endian: the coefficient of
/// `x^i` is byte `i % 8` of limb `i / 8`. `f·x^r mod g(x)` is `f·g(x)`
/// without its monic `x^r` term (characteristic 2).
///
/// Bits above `x^(r-1)` in the last limb are don't-care, here and in
/// every remainder built from these tables: shifts only move them up
/// and out, and nothing reads them (see [`symbol`]).
#[derive(Debug, Clone)]
enum Tables {
    /// r ≤ 8: the remainder is one `u64`. `[i][f]` is
    /// `f·x^(r+i) mod g(x)` for i ∈ 0..8, so eight message bytes fold
    /// into the remainder with eight independent lookups.
    Word(Box<[[u64; 256]; 8]>),
    /// r > 8: `rows[f·limbs..][..limbs]` is `f·x^r mod g(x)`.
    Limbs(Vec<u64>),
}

/// Generator polynomial `g(x) = Π_{i=0}^{parity-1} (x - α^i)`, lowest
/// degree coefficient first, monic (degree `parity`).
fn generator(parity: usize) -> Vec<Gf256> {
    let mut generator = vec![Gf256::ONE];
    for i in 0..parity {
        let root = Gf256::alpha_pow(i);
        let mut next = vec![Gf256::ZERO; generator.len() + 1];
        for (j, &coeff) in generator.iter().enumerate() {
            // (x + root) * coeff·x^j  (char-2: minus == plus)
            next[j + 1] += coeff;
            next[j] += coeff * root;
        }
        generator = next;
    }
    generator
}

/// Bit offset of the top remainder symbol (`x^(r-1)`) within its limb.
fn top_shift(parity: usize) -> u32 {
    8 * ((parity - 1) % LIMB_SYMBOLS) as u32
}

/// Coefficient of `x^i` in a packed remainder.
fn symbol(rem: &[u64], i: usize) -> u8 {
    (rem[i / LIMB_SYMBOLS] >> (8 * (i % LIMB_SYMBOLS))) as u8
}

impl ReedSolomon {
    /// Builds a code with `parity` check symbols.
    ///
    /// # Panics
    ///
    /// Panics if `parity` is zero or greater than 254.
    pub fn new(parity: usize) -> ReedSolomon {
        assert!(parity > 0 && parity < 255, "parity must be in 1..=254");
        let generator = generator(parity);
        let limbs = parity.div_ceil(LIMB_SYMBOLS);
        let mut rows = vec![0u64; 256 * limbs];
        for (factor, row) in rows.chunks_exact_mut(limbs).enumerate() {
            let factor = Gf256::new(factor as u8);
            for (i, &coeff) in generator[..parity].iter().enumerate() {
                row[i / LIMB_SYMBOLS] |=
                    u64::from((factor * coeff).value()) << (8 * (i % LIMB_SYMBOLS));
            }
        }
        let tables = if limbs > 1 {
            Tables::Limbs(rows)
        } else {
            // Table i+1 is table i times x: shift up one symbol and
            // reduce the symbol that reaches x^r through table 0.
            let top = top_shift(parity);
            let mut word = Box::new([[0u64; 256]; 8]);
            word[0].copy_from_slice(&rows);
            for i in 1..8 {
                for f in 0..256 {
                    let v = word[i - 1][f];
                    word[i][f] = (v << 8) ^ word[0][usize::from((v >> top) as u8)];
                }
            }
            Tables::Word(word)
        };
        ReedSolomon { parity, tables }
    }

    /// Number of parity symbols.
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Maximum number of guaranteed-correctable symbol errors.
    pub fn correctable(&self) -> usize {
        self.parity / 2
    }

    /// Maximum number of guaranteed-*detectable* symbol errors when the
    /// code is used for detection only (the Hetero-DMR copy decode).
    pub fn detectable(&self) -> usize {
        self.parity
    }

    /// The remainder of `m(x)·x^r` divided by `g(x)`, packed like
    /// [`Tables`] in the first ⌈r/8⌉ limbs.
    ///
    /// A shift register: each message byte plus the top remainder
    /// symbol picks the table row to add after shifting the remainder
    /// up one symbol — the long-division recurrence with the
    /// `factor·g(x)` products precomputed. One-word codes take eight
    /// of those steps at once (`Tables::Word`).
    fn remainder(&self, message: &[u8]) -> [u64; MAX_LIMBS] {
        let top = top_shift(self.parity);
        let mut rem = [0u64; MAX_LIMBS];
        match &self.tables {
            Tables::Word(word) => {
                // Eight bytes at a time: with S(x) = rem(x)·x^(8-r) +
                // the chunk, the new remainder is S(x)·x^r mod g(x) =
                // Σ s_i·(x^(r+i) mod g(x)).
                let align = 64 - 8 * self.parity as u32;
                let mut a = 0u64;
                let mut chunks = message.chunks_exact(8);
                for chunk in &mut chunks {
                    let chunk: [u8; 8] = chunk.try_into().expect("8-byte chunk");
                    let s = (a << align) ^ u64::from_be_bytes(chunk);
                    a = word
                        .iter()
                        .zip(s.to_le_bytes())
                        .fold(0, |acc, (table, b)| acc ^ table[usize::from(b)]);
                }
                for &byte in chunks.remainder() {
                    let factor = byte ^ (a >> top) as u8;
                    a = (a << 8) ^ word[0][usize::from(factor)];
                }
                rem[0] = a;
            }
            Tables::Limbs(rows) => {
                let limbs = self.parity.div_ceil(LIMB_SYMBOLS);
                let last = limbs - 1;
                for &byte in message {
                    let factor = usize::from(byte ^ (rem[last] >> top) as u8);
                    let row = &rows[factor * limbs..][..limbs];
                    for k in (1..=last).rev() {
                        rem[k] = (rem[k] << 8 | rem[k - 1] >> 56) ^ row[k];
                    }
                    rem[0] = (rem[0] << 8) ^ row[0];
                }
            }
        }
        rem
    }

    /// Writes the `r` parity symbols of `message` into `out`, highest
    /// degree first (the order they follow the message in).
    ///
    /// # Panics
    ///
    /// Panics if `message.len() + parity` exceeds 255 or `out` does not
    /// hold exactly `parity` symbols.
    pub(crate) fn parity_into(&self, message: &[u8], out: &mut [u8]) {
        assert!(
            message.len() + self.parity <= 255,
            "codeword exceeds GF(256) RS length"
        );
        assert_eq!(out.len(), self.parity, "parity slice length");
        let rem = self.remainder(message);
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = symbol(&rem, self.parity - 1 - j);
        }
    }

    /// Computes the `r` parity symbols for `message`.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() + parity` exceeds 255.
    pub fn parity_of(&self, message: &[u8]) -> Vec<u8> {
        let mut parity = vec![0u8; self.parity];
        self.parity_into(message, &mut parity);
        parity
    }

    /// Computes the syndrome vector of `message || parity`.
    ///
    /// All-zero syndromes mean the word is a codeword (no detected
    /// error). They are evaluated on the residual `parity ⊕
    /// parity_of(message)` (see the module docs), `r` symbols instead
    /// of the whole word.
    ///
    /// # Panics
    ///
    /// Panics unless `parity` holds exactly `r` symbols.
    pub fn syndromes(&self, message: &[u8], parity: &[u8]) -> Vec<Gf256> {
        assert_eq!(parity.len(), self.parity, "parity slice length");
        let rem = self.remainder(message);
        let r = self.parity;
        (0..r)
            .map(|k| {
                // Horner evaluation of Δ at α^k, highest degree first.
                let x = Gf256::alpha_pow(k);
                parity.iter().enumerate().fold(Gf256::ZERO, |acc, (j, &p)| {
                    acc * x + Gf256::new(p ^ symbol(&rem, r - 1 - j))
                })
            })
            .collect()
    }

    /// Detection-only decode: returns `true` when an error is detected.
    ///
    /// This is the decode Hetero-DMR applies to copies read from the
    /// unsafely fast Free Module — it never attempts correction, so it
    /// can never *mis*correct. Some syndrome is nonzero exactly when
    /// the stored parity differs from the message's recomputed parity.
    ///
    /// # Panics
    ///
    /// Panics unless `parity` holds exactly `r` symbols.
    pub fn detect(&self, message: &[u8], parity: &[u8]) -> bool {
        assert_eq!(parity.len(), self.parity, "parity slice length");
        let rem = self.remainder(message);
        let r = self.parity;
        parity
            .iter()
            .enumerate()
            .any(|(j, &p)| p != symbol(&rem, r - 1 - j))
    }

    /// Detect + correct decode (conventional server-memory behaviour,
    /// used for original blocks). Corrects up to ⌊r/2⌋ symbol errors
    /// in place across `message` and `parity`.
    ///
    /// Returns the number of symbols corrected (zero when the word was
    /// already clean).
    ///
    /// # Errors
    ///
    /// [`RsError::Uncorrectable`] when more errors are present than the
    /// code can correct. Note that, as the paper stresses, a pattern of
    /// *more* than ⌊r/2⌋ errors may also silently miscorrect — that is
    /// exactly why Hetero-DMR uses [`ReedSolomon::detect`] for copies.
    pub fn correct(&self, message: &mut [u8], parity: &mut [u8]) -> Result<usize, RsError> {
        let syndromes = self.syndromes(message, parity);
        if syndromes.iter().all(|s| *s == Gf256::ZERO) {
            return Ok(0);
        }
        let lambda = berlekamp_massey(&syndromes);
        let errors = lambda.len() - 1;
        if errors == 0 || errors > self.correctable() {
            return Err(RsError::Uncorrectable);
        }
        let n = message.len() + parity.len();
        // Chien search: position idx (0 = first message symbol) has
        // locator X = α^(n-1-idx); it is an error position when
        // Λ(X⁻¹) = 0.
        let mut positions = Vec::new();
        for idx in 0..n {
            let x_inv = Gf256::alpha_pow(n - 1 - idx).inverse();
            if poly_eval(&lambda, x_inv) == Gf256::ZERO {
                positions.push(idx);
            }
        }
        if positions.len() != errors {
            return Err(RsError::Uncorrectable);
        }
        // Ω(x) = S(x)·Λ(x) mod x^r.
        let omega = poly_mul_mod(&syndromes, &lambda, self.parity);
        // Forney: e = X·Ω(X⁻¹) / Λ'(X⁻¹).
        for &idx in &positions {
            let x = Gf256::alpha_pow(n - 1 - idx);
            let x_inv = x.inverse();
            let denom = poly_eval_derivative(&lambda, x_inv);
            if denom == Gf256::ZERO {
                return Err(RsError::Uncorrectable);
            }
            let magnitude = x * poly_eval(&omega, x_inv) / denom;
            let slot = if idx < message.len() {
                &mut message[idx]
            } else {
                &mut parity[idx - message.len()]
            };
            *slot ^= magnitude.value();
        }
        // Verify the corrected word is a codeword; if not, the error
        // pattern exceeded the design distance.
        if self.detect(message, parity) {
            return Err(RsError::Uncorrectable);
        }
        Ok(errors)
    }
}

/// Berlekamp-Massey: smallest LFSR (error locator Λ, lowest degree
/// first, Λ₀ = 1) generating the syndrome sequence.
fn berlekamp_massey(syndromes: &[Gf256]) -> Vec<Gf256> {
    let mut lambda = vec![Gf256::ONE];
    let mut prev = vec![Gf256::ONE];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut b = Gf256::ONE;
    for n in 0..syndromes.len() {
        let mut delta = syndromes[n];
        for i in 1..=l.min(lambda.len() - 1) {
            delta += lambda[i] * syndromes[n - i];
        }
        if delta == Gf256::ZERO {
            m += 1;
        } else if 2 * l <= n {
            let t = lambda.clone();
            lambda = poly_sub_scaled_shift(&lambda, &prev, delta / b, m);
            l = n + 1 - l;
            prev = t;
            b = delta;
            m = 1;
        } else {
            lambda = poly_sub_scaled_shift(&lambda, &prev, delta / b, m);
            m += 1;
        }
    }
    lambda.truncate(l + 1);
    lambda
}

/// `a - coef·x^shift·b` (char 2: subtraction is addition).
fn poly_sub_scaled_shift(a: &[Gf256], b: &[Gf256], coef: Gf256, shift: usize) -> Vec<Gf256> {
    let mut out = a.to_vec();
    if out.len() < b.len() + shift {
        out.resize(b.len() + shift, Gf256::ZERO);
    }
    for (i, &bi) in b.iter().enumerate() {
        out[i + shift] += coef * bi;
    }
    out
}

/// Evaluates a polynomial (lowest degree first) at `x`.
fn poly_eval(poly: &[Gf256], x: Gf256) -> Gf256 {
    let mut acc = Gf256::ZERO;
    for &coeff in poly.iter().rev() {
        acc = acc * x + coeff;
    }
    acc
}

/// Evaluates the formal derivative of a polynomial at `x`
/// (char 2: only odd-degree terms survive).
fn poly_eval_derivative(poly: &[Gf256], x: Gf256) -> Gf256 {
    let mut acc = Gf256::ZERO;
    for (i, &coeff) in poly.iter().enumerate() {
        if i % 2 == 1 {
            acc += coeff * x.pow(i - 1);
        }
    }
    acc
}

/// `(a·b) mod x^modulus`, all polynomials lowest degree first.
fn poly_mul_mod(a: &[Gf256], b: &[Gf256], modulus: usize) -> Vec<Gf256> {
    let mut out = vec![Gf256::ZERO; modulus];
    for (i, &ai) in a.iter().enumerate() {
        if ai == Gf256::ZERO || i >= modulus {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if i + j < modulus {
                out[i + j] += ai * bj;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rs8() -> ReedSolomon {
        ReedSolomon::new(8)
    }

    fn random_block(rng: &mut StdRng) -> Vec<u8> {
        (0..64).map(|_| rng.random()).collect()
    }

    #[test]
    fn clean_codeword_has_zero_syndromes() {
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            let msg = random_block(&mut rng);
            let parity = rs.parity_of(&msg);
            assert!(!rs.detect(&msg, &parity));
        }
    }

    #[test]
    fn detects_every_single_byte_error() {
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(2);
        let msg = random_block(&mut rng);
        let parity = rs.parity_of(&msg);
        for pos in 0..msg.len() + parity.len() {
            let mut m = msg.clone();
            let mut p = parity.clone();
            let slot = if pos < m.len() {
                &mut m[pos]
            } else {
                &mut p[pos - m.len()]
            };
            *slot ^= 0x5A;
            assert!(rs.detect(&m, &p), "missed error at position {pos}");
        }
    }

    #[test]
    fn detects_all_eight_symbol_patterns_sampled() {
        // Min distance 9 guarantees detection of any ≤8-symbol error;
        // sample many random 8-symbol patterns, including patterns that
        // hit the parity bytes themselves.
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(3);
        let msg = random_block(&mut rng);
        let parity = rs.parity_of(&msg);
        for _ in 0..500 {
            let mut m = msg.clone();
            let mut p = parity.clone();
            let mut positions: Vec<usize> = (0..72).collect();
            for i in 0..8 {
                let j = rng.random_range(i..positions.len());
                positions.swap(i, j);
            }
            for &pos in &positions[..8] {
                let flip = loop {
                    let f: u8 = rng.random();
                    if f != 0 {
                        break f;
                    }
                };
                if pos < 64 {
                    m[pos] ^= flip;
                } else {
                    p[pos - 64] ^= flip;
                }
            }
            assert!(rs.detect(&m, &p));
        }
    }

    #[test]
    fn corrects_up_to_four_symbol_errors() {
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(4);
        for errors in 1..=4 {
            for _ in 0..50 {
                let msg = random_block(&mut rng);
                let parity = rs.parity_of(&msg);
                let mut m = msg.clone();
                let mut p = parity.clone();
                let mut used = std::collections::HashSet::new();
                for _ in 0..errors {
                    let pos = loop {
                        let c = rng.random_range(0..72);
                        if used.insert(c) {
                            break c;
                        }
                    };
                    let flip = rng.random_range(1..=255u8);
                    if pos < 64 {
                        m[pos] ^= flip;
                    } else {
                        p[pos - 64] ^= flip;
                    }
                }
                let fixed = rs.correct(&mut m, &mut p).expect("correctable");
                assert_eq!(fixed, errors);
                assert_eq!(m, msg);
                assert_eq!(p, parity);
            }
        }
    }

    #[test]
    fn five_errors_never_silently_pass_detection() {
        // With 5 errors, detect-only must still flag (5 ≤ 8), while
        // detect+correct either errors out or miscorrects — it must
        // never return the *original* data.
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(5);
        let mut miscorrections = 0;
        for _ in 0..200 {
            let msg = random_block(&mut rng);
            let parity = rs.parity_of(&msg);
            let mut m = msg.clone();
            let mut p = parity.clone();
            let mut used = std::collections::HashSet::new();
            for _ in 0..5 {
                let pos = loop {
                    let c = rng.random_range(0..72usize);
                    if used.insert(c) {
                        break c;
                    }
                };
                let flip = rng.random_range(1..=255u8);
                if pos < 64 {
                    m[pos] ^= flip;
                } else {
                    p[pos - 64] ^= flip;
                }
            }
            assert!(rs.detect(&m, &p), "detection-only missed a 5-byte error");
            match rs.correct(&mut m, &mut p) {
                Ok(_) => {
                    // Miscorrection: landed on a *different* codeword.
                    assert_ne!(m, msg, "correcting 5 errors cannot restore the data");
                    miscorrections += 1;
                }
                Err(RsError::Uncorrectable) => {}
            }
        }
        // Miscorrection is possible but rare; the test documents the
        // SDC vector the paper's detection-only decode eliminates.
        assert!(miscorrections < 200);
    }

    #[test]
    fn clean_word_corrects_to_zero_changes() {
        let rs = rs8();
        let mut rng = StdRng::seed_from_u64(6);
        let msg = random_block(&mut rng);
        let parity = rs.parity_of(&msg);
        let mut m = msg.clone();
        let mut p = parity.clone();
        assert_eq!(rs.correct(&mut m, &mut p), Ok(0));
        assert_eq!(m, msg);
    }

    #[test]
    fn parity_length_matches() {
        for r in [2, 4, 8, 16] {
            let rs = ReedSolomon::new(r);
            assert_eq!(rs.parity_of(&[0u8; 32]).len(), r);
            assert_eq!(rs.correctable(), r / 2);
            assert_eq!(rs.detectable(), r);
        }
    }

    #[test]
    fn zero_message_encodes_to_zero_parity() {
        let rs = rs8();
        assert_eq!(rs.parity_of(&[0u8; 64]), vec![0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "parity must be")]
    fn zero_parity_rejected() {
        let _ = ReedSolomon::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_codeword_rejected() {
        let rs = rs8();
        let _ = rs.parity_of(&[0u8; 250]);
    }
}
