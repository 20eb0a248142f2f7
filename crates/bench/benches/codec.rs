//! ECC codec gate: the table-driven Reed-Solomon code versus the
//! frozen textbook [`ReferenceReedSolomon`] on identical blocks.
//!
//! Like `stepping`, this target *gates*. It first asserts that both
//! codes produce identical parity, syndromes and detection verdicts on
//! 4 096 Bamboo blocks (address ‖ 64 data bytes, eight parity symbols),
//! half of them clean and half with a corrupted symbol. It then asserts
//! that the table-driven `detect` — the decode Hetero-DMR runs on every
//! fast copy read — is at least 3× faster than the reference in the same
//! process (best-of-3 each, interleaved so host drift hits both sides;
//! a ratio, so a slow host does not fail it).

use ecc::rs::reference::ReferenceReedSolomon;
use ecc::rs::ReedSolomon;
use ecc::{BlockCodec, DetectOutcome, EccBlock};
use std::hint::black_box;
use std::time::Instant;

/// splitmix64, matching the stepping gate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const BLOCKS: usize = 4_096;
const PASSES: usize = 8;
const ROUNDS: usize = 3;
/// Minimum table-vs-reference `detect` speedup.
const MIN_SPEEDUP: f64 = 3.0;

/// One stored block: its address, the RS message the codec checks
/// (big-endian address ‖ data) and the block as read.
struct Case {
    address: u64,
    message: Vec<u8>,
    block: EccBlock,
}

fn cases(codec: &BlockCodec, seed: u64) -> Vec<Case> {
    let mut rng = Rng(seed);
    (0..BLOCKS)
        .map(|i| {
            let address = (rng.next() % (1 << 34)) * 64;
            let mut data = [0u8; 64];
            for chunk in data.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next().to_le_bytes());
            }
            let mut block = codec.encode(address, &data);
            if i % 2 == 1 {
                // Corrupt one data or ECC symbol with a nonzero flip.
                let pos = (rng.next() % 72) as usize;
                let flip = (rng.next() % 255) as u8 + 1;
                match pos {
                    0..64 => block.data[pos] ^= flip,
                    _ => block.ecc[pos - 64] ^= flip,
                }
            }
            let mut message = address.to_be_bytes().to_vec();
            message.extend_from_slice(&block.data);
            Case {
                address,
                message,
                block,
            }
        })
        .collect()
}

/// Asserts both codes agree on every case; returns how many were
/// detected, so the gate fails if it compared only clean blocks.
fn check_outputs(
    codec: &BlockCodec,
    table: &ReedSolomon,
    reference: &ReferenceReedSolomon,
    cases: &[Case],
) -> usize {
    let mut detected = 0;
    for (i, c) in cases.iter().enumerate() {
        let parity = table.parity_of(&c.message);
        assert_eq!(parity, reference.parity_of(&c.message), "parity, block {i}");
        let ecc = &c.block.ecc[..];
        assert_eq!(
            table.syndromes(&c.message, ecc),
            reference.syndromes(&c.message, ecc),
            "syndromes, block {i}"
        );
        let verdict = reference.detect(&c.message, ecc);
        assert_eq!(table.detect(&c.message, ecc), verdict, "detect, block {i}");
        assert_eq!(
            codec.detect(c.address, &c.block) == DetectOutcome::Detected,
            verdict,
            "block codec detect, block {i}"
        );
        detected += usize::from(verdict);
    }
    detected
}

fn time_detect(cases: &[Case], detect: impl Fn(&[u8], &[u8]) -> bool) -> f64 {
    let start = Instant::now();
    for _ in 0..PASSES {
        for c in cases {
            black_box(detect(black_box(&c.message), black_box(&c.block.ecc)));
        }
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let codec = BlockCodec::new();
    let table = ReedSolomon::new(8);
    let reference = ReferenceReedSolomon::new(8);
    let cases = cases(&codec, 0xECC0);
    let detected = check_outputs(&codec, &table, &reference, &cases);
    assert_eq!(
        detected,
        BLOCKS / 2,
        "every corrupted block, and no clean one, must be detected"
    );
    println!("codec/outputs: {BLOCKS} blocks identical ({detected} detected)");

    let table_detect = |m: &[u8], p: &[u8]| table.detect(m, p);
    let reference_detect = |m: &[u8], p: &[u8]| reference.detect(m, p);
    // Warm-up pair first (unmeasured), then interleaved rounds.
    let _ = time_detect(&cases, table_detect);
    let _ = time_detect(&cases, reference_detect);
    let mut best_table = f64::INFINITY;
    let mut best_reference = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_table = best_table.min(time_detect(&cases, table_detect));
        best_reference = best_reference.min(time_detect(&cases, reference_detect));
    }
    let calls = (BLOCKS * PASSES) as f64;
    let ratio = best_reference / best_table;
    println!(
        "codec/detect_table: {:.1} ns/block",
        1e9 * best_table / calls
    );
    println!(
        "codec/detect_reference: {:.1} ns/block",
        1e9 * best_reference / calls
    );
    println!("codec/speedup: {ratio:.2}x");
    assert!(
        ratio >= MIN_SPEEDUP,
        "table-driven detect is only {ratio:.2}x the reference (need {MIN_SPEEDUP}x)"
    );
}
