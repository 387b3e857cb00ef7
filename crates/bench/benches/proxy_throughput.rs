//! Micro-benchmarks of the live-prototype relay hot path (see
//! `DESIGN.md` "Streaming bodies & vectored I/O"; the end-to-end relay
//! numbers are the repository benchmark's `relay_down` and `relay_up`
//! workloads, `bash benchmark/run.sh`).
//!
//! Two directions through an unthrottled virtual-net device proxy:
//! - `segment_relay`: 4 × 2 MB GET bodies, origin → device → client —
//!   the path the zero-copy streaming codec targets (bounded-window
//!   piping, no whole-segment materialization, gather-writes of
//!   head + body);
//! - `upload_relay`: 8 × 250 kB multipart photo POSTs, client →
//!   device → origin, committed and verified at the origin.
//!
//! Each iteration builds its whole household slice from scratch, so
//! the numbers include connection setup.

use criterion::{criterion_group, criterion_main, Criterion};

use threegol_bench::relay;

fn bench_segment_relay(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_throughput");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("segment_relay_8mb", |b| b.iter(relay::segment_relay));
    group.finish();
}

fn bench_upload_relay(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_throughput");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("upload_relay_2mb", |b| b.iter(relay::upload_relay));
    group.finish();
}

criterion_group!(proxy_throughput, bench_segment_relay, bench_upload_relay);
criterion_main!(proxy_throughput);
