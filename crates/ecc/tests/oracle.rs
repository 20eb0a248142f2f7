//! Oracle tests: the table-driven codec against the frozen textbook
//! reference (`ecc::rs::reference`).
//!
//! The table-driven encoder and the residual-based syndromes must equal
//! long division and whole-word Horner evaluation on every input — the
//! codec is a faster algorithm for the same function, never a different
//! function.

use ecc::rs::reference::ReferenceReedSolomon;
use ecc::rs::ReedSolomon;
use ecc::{inject, BlockCodec, DetectOutcome, EccBlock, ErrorModel, RsError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parity_of`, `syndromes` and `detect` equal the reference for
    /// r ∈ 1..=16 and every message length the code admits, on clean
    /// words and on words with random symbol errors (including the
    /// parity symbols themselves).
    #[test]
    fn codec_matches_reference(
        r in 1usize..=16,
        body in proptest::collection::vec(any::<u8>(), 0..=254),
        errors in proptest::collection::vec((any::<u8>(), 1u8..=255), 0..=20),
    ) {
        let message = &body[..body.len().min(255 - r)];
        let table = ReedSolomon::new(r);
        let reference = ReferenceReedSolomon::new(r);
        let parity = table.parity_of(message);
        prop_assert_eq!(&parity, &reference.parity_of(message));
        prop_assert!(!table.detect(message, &parity));

        let mut m = message.to_vec();
        let mut p = parity.clone();
        let n = m.len() + r;
        for &(pos, flip) in &errors {
            let pos = usize::from(pos) % n;
            if pos < m.len() {
                m[pos] ^= flip;
            } else {
                p[pos - m.len()] ^= flip;
            }
        }
        prop_assert_eq!(table.syndromes(&m, &p), reference.syndromes(&m, &p));
        prop_assert_eq!(table.detect(&m, &p), reference.detect(&m, &p));
    }
}

/// Syndromes and detection also agree at the codeword-length limit,
/// where the residual's Horner pass is shortest relative to the word.
#[test]
fn full_length_words_match_reference() {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for r in [1, 2, 7, 8, 9, 15, 16, 17, 32, 100, 254] {
        let table = ReedSolomon::new(r);
        let reference = ReferenceReedSolomon::new(r);
        let mut message = vec![0u8; 255 - r];
        rng.fill(&mut message[..]);
        let parity = table.parity_of(&message);
        assert_eq!(parity, reference.parity_of(&message), "r = {r}");
        let mut p = parity.clone();
        p[rng.random_range(0..r)] ^= rng.random_range(1..=255u8);
        let i = rng.random_range(0..message.len());
        message[i] ^= 1;
        assert_eq!(
            table.syndromes(&message, &p),
            reference.syndromes(&message, &p),
            "r = {r}"
        );
        assert_eq!(
            table.detect(&message, &p),
            reference.detect(&message, &p),
            "r = {r}"
        );
    }
}

/// The RS message of a Bamboo block: big-endian address, then data.
fn message(address: u64, block: &EccBlock) -> Vec<u8> {
    let mut m = address.to_be_bytes().to_vec();
    m.extend_from_slice(&block.data);
    m
}

/// `BlockCodec::{encode, detect, correct}` agree with the reference on
/// blocks injected with every error class.
#[test]
fn block_codec_agrees_with_reference_under_every_error_model() {
    let codec = BlockCodec::new();
    let reference = ReferenceReedSolomon::new(8);
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for model in ErrorModel::ALL {
        for _ in 0..200 {
            let address = rng.random_range(0..1u64 << 40) * 64;
            let mut data = [0u8; 64];
            rng.fill(&mut data[..]);
            let clean = codec.encode(address, &data);
            assert_eq!(
                clean.ecc[..],
                reference.parity_of(&message(address, &clean))[..]
            );

            let mut observed = clean;
            let injection = inject(&mut rng, model, address, &mut observed);
            if injection.effective_address != address {
                observed = codec.encode(injection.effective_address, &data);
            }
            let ref_message = message(address, &observed);
            let ref_detected = reference.detect(&ref_message, &observed.ecc);
            let detected = codec.detect(address, &observed) == DetectOutcome::Detected;
            assert_eq!(detected, ref_detected, "{model:?}");

            let mut corrected = observed;
            match codec.correct(address, &mut corrected) {
                Ok(0) => {
                    assert!(!ref_detected, "{model:?}: clean verdict on a dirty word");
                    assert_eq!(corrected, observed);
                }
                Ok(fixed) => {
                    assert!(ref_detected, "{model:?}: corrected a clean word");
                    // The result is a reference codeword `fixed` symbols
                    // away from what was read.
                    let fixed_message = message(address, &corrected);
                    assert!(!reference.detect(&fixed_message, &corrected.ecc));
                    let distance = observed
                        .data
                        .iter()
                        .chain(&observed.ecc)
                        .zip(corrected.data.iter().chain(&corrected.ecc))
                        .filter(|(a, b)| a != b)
                        .count();
                    assert_eq!(distance, fixed, "{model:?}");
                }
                Err(RsError::Uncorrectable) => {
                    assert!(ref_detected, "{model:?}: refused a clean word");
                    assert_eq!(corrected, observed, "{model:?}: refusal altered the block");
                }
            }
        }
    }
}
