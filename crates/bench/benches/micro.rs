//! Micro-benchmarks of the hot simulator primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use ecc::bamboo::BlockCodec;
use ecc::rs::ReedSolomon;
use hetero_dmr::governor::EpochGovernor;
use hetero_dmr::protocol::HeteroDmrChannel;
use memsim::address::AddressMapping;
use memsim::cache::Cache;
use memsim::config::{ChannelMode, HierarchyConfig};
use memsim::controller::ChannelController;
use std::hint::black_box;
use workloads::{Suite, TraceGen};

fn rs_codec(c: &mut Criterion) {
    let rs = ReedSolomon::new(8);
    let message = [0x3Cu8; 64];
    let parity = rs.parity_of(&message);
    let mut g = c.benchmark_group("rs_codec");
    g.bench_function("encode_64B", |b| {
        b.iter(|| black_box(rs.parity_of(black_box(&message))))
    });
    g.bench_function("syndromes_64B", |b| {
        b.iter(|| black_box(rs.syndromes(black_box(&message), &parity)))
    });
    g.bench_function("correct_2_errors", |b| {
        b.iter(|| {
            let mut m = message;
            let mut p = parity.clone();
            m[5] ^= 0x11;
            m[40] ^= 0x22;
            black_box(rs.correct(&mut m, &mut p).unwrap())
        })
    });
    g.finish();
}

fn block_codec(c: &mut Criterion) {
    let codec = BlockCodec::new();
    let data = [7u8; 64];
    let block = codec.encode(0x4040, &data);
    c.bench_function("bamboo_detect_clean", |b| {
        b.iter(|| black_box(codec.detect(0x4040, black_box(&block))))
    });
}

fn cache_access(c: &mut Criterion) {
    c.bench_function("cache_access_stream", |b| {
        let mut cache = Cache::new(1024 * 1024, 16);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64);
            black_box(cache.access(black_box(addr), false))
        })
    });
}

fn controller_read(c: &mut Criterion) {
    c.bench_function("controller_streaming_reads", |b| {
        let h = HierarchyConfig::hierarchy1();
        let mut ctrl = ChannelController::new(
            ChannelMode::commercial_baseline(),
            h.memory,
            h.core.page_timeout_ps(),
        );
        let mapping = AddressMapping::new(1, 4, 16);
        let mut addr = 0u64;
        let mut t = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64);
            t += 4_000;
            let token = ctrl.submit_read(mapping.map(addr), t, true);
            black_box(ctrl.resolve_read(token))
        })
    });
}

fn trace_generation(c: &mut Criterion) {
    c.bench_function("trace_generation_hpcg", |b| {
        b.iter(|| {
            let gen = TraceGen::new(Suite::Hpcg.params(), black_box(11), 1_000);
            black_box(gen.count())
        })
    });
}

fn protocol_fast_read(c: &mut Criterion) {
    c.bench_function("protocol_fast_clean_read", |b| {
        let mut ch = HeteroDmrChannel::new(1 << 16);
        let t = ch.set_used_blocks(1 << 14, 0);
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % (1 << 14);
            black_box(
                ch.read::<rand::rngs::StdRng>(block, t, None)
                    .expect("clean read"),
            )
        })
    });
}

fn frequency_transition(c: &mut Criterion) {
    c.bench_function("protocol_write_mode_round_trip", |b| {
        let mut ch = HeteroDmrChannel::new(1 << 16);
        let mut t = ch.set_used_blocks(1 << 14, 0);
        b.iter(|| {
            let w = ch.begin_write_mode(t).expect("read mode leaves for writes");
            t = ch.begin_read_mode(w).expect("write mode resumes reads");
            black_box(t)
        })
    });
}

fn governor(c: &mut Criterion) {
    c.bench_function("governor_record_error", |b| {
        let mut g = EpochGovernor::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000_000;
            black_box(g.record_error(t))
        })
    });
}

criterion_group!(
    micro,
    rs_codec,
    block_codec,
    cache_access,
    controller_read,
    trace_generation,
    protocol_fast_read,
    frequency_transition,
    governor
);
criterion_main!(micro);
