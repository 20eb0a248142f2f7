//! Bamboo-ECC-style block codec for 64-byte memory blocks.
//!
//! Following Section III-B of the paper:
//!
//! * all 64 data bytes of a block are protected together by eight
//!   Reed-Solomon ECC bytes (Bamboo-ECC [Kim+, HPCA'15]);
//! * the block's *address* is incorporated into the code (similar to
//!   resilient die-stacked caches [Sim+, ISCA'13]) so address-bus
//!   errors — the block coming back from the wrong location — are
//!   detected too;
//! * for copies, decode stops at detection ([`BlockCodec::detect`]);
//!   for originals, the conventional detect+correct decode is used
//!   ([`BlockCodec::correct`]).
//!
//! Encoding is identical for originals and copies, so a broadcast write
//! can place byte-identical content (data + ECC) in both modules.

use crate::rs::{ReedSolomon, RsError};

/// Bytes of user data per memory block.
pub const BLOCK_DATA_BYTES: usize = 64;

/// ECC bytes per memory block (one x8 ECC device's share of a burst).
pub const BLOCK_ECC_BYTES: usize = 8;

/// A 64-byte block together with its eight ECC bytes, as stored in a
/// rank's data + ECC devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccBlock {
    /// The 64 data bytes.
    pub data: [u8; BLOCK_DATA_BYTES],
    /// The eight Reed-Solomon check bytes.
    pub ecc: [u8; BLOCK_ECC_BYTES],
}

/// Result of a detection-only decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectOutcome {
    /// Syndromes were all zero: no error detected.
    Clean,
    /// At least one nonzero syndrome: error detected; the caller must
    /// recover from the original block.
    Detected,
}

/// Encoder/decoder for [`EccBlock`]s with address incorporation.
#[derive(Debug, Clone)]
pub struct BlockCodec {
    rs: ReedSolomon,
}

impl Default for BlockCodec {
    fn default() -> Self {
        BlockCodec::new()
    }
}

impl BlockCodec {
    /// Creates the codec (RS with eight parity symbols).
    pub fn new() -> BlockCodec {
        BlockCodec {
            rs: ReedSolomon::new(BLOCK_ECC_BYTES),
        }
    }

    /// Encodes `data` stored at `address` into a protected block.
    ///
    /// The address participates in the parity computation but is not
    /// stored — both encoder and decoder know which address they are
    /// accessing, so a mismatch surfaces as nonzero syndromes.
    pub fn encode(&self, address: u64, data: &[u8; BLOCK_DATA_BYTES]) -> EccBlock {
        let mut ecc = [0u8; BLOCK_ECC_BYTES];
        self.rs.parity_into(&Self::message(address, data), &mut ecc);
        EccBlock { data: *data, ecc }
    }

    /// Detection-only decode (the Hetero-DMR copy path): checks the
    /// syndromes and **never** attempts correction, so it can never
    /// miscorrect.
    pub fn detect(&self, address: u64, block: &EccBlock) -> DetectOutcome {
        let message = Self::message(address, &block.data);
        if self.rs.detect(&message, &block.ecc) {
            DetectOutcome::Detected
        } else {
            DetectOutcome::Clean
        }
    }

    /// Conventional detect+correct decode (the original-block path).
    /// Corrects up to four symbol errors in the data/ECC bytes.
    ///
    /// # Errors
    ///
    /// [`RsError::Uncorrectable`] when the error pattern exceeds the
    /// correction capability, or when correction would have to alter
    /// the (virtual, known-good) address symbols — which indicates the
    /// block was fetched from the wrong address and the data cannot be
    /// trusted.
    pub fn correct(&self, address: u64, block: &mut EccBlock) -> Result<usize, RsError> {
        let mut message = Self::message(address, &block.data);
        let mut parity = block.ecc;
        let fixed = self.rs.correct(&mut message, &mut parity)?;
        // The address symbols are known-correct at the decoder; if the
        // "correction" touched them, the true error exceeded the code.
        if message[..8] != address.to_be_bytes() {
            return Err(RsError::Uncorrectable);
        }
        block.data.copy_from_slice(&message[8..]);
        block.ecc = parity;
        Ok(fixed)
    }

    /// The RS message: the big-endian address symbols, then the data.
    /// Built on the stack, so encode and detect allocate nothing.
    fn message(address: u64, data: &[u8; BLOCK_DATA_BYTES]) -> [u8; 8 + BLOCK_DATA_BYTES] {
        let mut message = [0u8; 8 + BLOCK_DATA_BYTES];
        message[..8].copy_from_slice(&address.to_be_bytes());
        message[8..].copy_from_slice(data);
        message
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn block(rng: &mut StdRng) -> [u8; 64] {
        let mut data = [0u8; 64];
        rng.fill(&mut data[..]);
        data
    }

    #[test]
    fn clean_round_trip() {
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..16 {
            let addr: u64 = rng.random();
            let data = block(&mut rng);
            let enc = codec.encode(addr, &data);
            assert_eq!(codec.detect(addr, &enc), DetectOutcome::Clean);
        }
    }

    #[test]
    fn address_mismatch_is_detected() {
        // An address-bus error returns data from location B when the
        // CPU asked for A; the incorporated address flags it.
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(11);
        let data = block(&mut rng);
        let enc = codec.encode(0x1000, &data);
        assert_eq!(codec.detect(0x1040, &enc), DetectOutcome::Detected);
        // Correction must refuse rather than "fix" the address.
        let mut b = enc;
        assert_eq!(codec.correct(0x1040, &mut b), Err(RsError::Uncorrectable));
    }

    #[test]
    fn detects_errors_in_ecc_bytes_themselves() {
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(12);
        let data = block(&mut rng);
        let mut enc = codec.encode(7, &data);
        for i in 0..BLOCK_ECC_BYTES {
            let mut b = enc;
            b.ecc[i] ^= 0xFF;
            assert_eq!(codec.detect(7, &b), DetectOutcome::Detected);
        }
        // All eight ECC bytes corrupted at once: still detected (the
        // paper: "even if some or all errors occur in the ECC bytes").
        for e in enc.ecc.iter_mut() {
            *e ^= 0xA5;
        }
        assert_eq!(codec.detect(7, &enc), DetectOutcome::Detected);
    }

    #[test]
    fn corrects_small_errors_in_originals() {
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(13);
        let data = block(&mut rng);
        let enc = codec.encode(42, &data);
        for errors in 1..=4usize {
            let mut b = enc;
            for i in 0..errors {
                b.data[i * 13] ^= 0x3C;
            }
            let fixed = codec.correct(42, &mut b).unwrap();
            assert_eq!(fixed, errors);
            assert_eq!(b.data, data);
            assert_eq!(b.ecc, enc.ecc);
        }
    }

    #[test]
    fn eight_byte_burst_always_detected() {
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(14);
        let data = block(&mut rng);
        let enc = codec.encode(99, &data);
        for _ in 0..300 {
            let mut b = enc;
            let start = rng.random_range(0..57usize);
            for i in 0..8 {
                b.data[start + i] ^= rng.random_range(1..=255u8);
            }
            assert_eq!(codec.detect(99, &b), DetectOutcome::Detected);
        }
    }

    #[test]
    fn identical_encoding_for_original_and_copy() {
        // Broadcast writes require the original and the copy to carry
        // byte-identical content, including ECC (Section III-C).
        let codec = BlockCodec::new();
        let data = [0xAB; 64];
        let a = codec.encode(0x8000, &data);
        let b = codec.encode(0x8000, &data);
        assert_eq!(a, b);
    }

    #[test]
    fn full_block_corruption_detected() {
        // An IO error can corrupt a whole block; with 72 corrupted
        // symbols detection is probabilistic (2^-64 escape) — any
        // sampled pattern must be caught.
        let codec = BlockCodec::new();
        let mut rng = StdRng::seed_from_u64(15);
        let data = block(&mut rng);
        let enc = codec.encode(5, &data);
        for _ in 0..100 {
            let mut b = enc;
            rng.fill(&mut b.data[..]);
            rng.fill(&mut b.ecc[..]);
            if b == enc {
                continue;
            }
            assert_eq!(codec.detect(5, &b), DetectOutcome::Detected);
        }
    }
}
