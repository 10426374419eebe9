//! Criterion micro-benchmarks of the simulation kernel itself: edges per
//! second through a full reference-switch chassis, naive stepper vs the
//! fast path (cached module activity + quiescence skipping + bursts).
//! Small iteration counts keep `--test` mode (the CI smoke step) quick;
//! `exp10_kernel` produces the headline numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netfpga_bench::kernel::{idle_heavy, saturated, KernelConfig};
use std::hint::black_box;

fn bench_idle_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/idle_heavy");
    // 10 rounds x 50 us at 200 MHz = 100k edges per iteration.
    g.throughput(Throughput::Elements(100_000));
    for config in [KernelConfig::Naive, KernelConfig::Fast] {
        g.bench_function(config.label(), |b| {
            b.iter(|| black_box(idle_heavy(config, 10).edges))
        });
    }
    g.finish();
}

fn bench_saturated(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/saturated");
    for config in [KernelConfig::Naive, KernelConfig::Fast] {
        g.bench_function(config.label(), |b| {
            b.iter(|| black_box(saturated(config, 100).edges))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_idle_heavy, bench_saturated);
criterion_main!(benches);
