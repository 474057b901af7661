//! Windowed time-series aggregation overhead on the sharded pipeline.
//!
//! The acceptance budget: hourly windowing (the default
//! [`adscope::window::WindowOptions`]) must stay within 5% of the
//! unwindowed sharded throughput. The two medians land side by side in
//! the `BENCH_JSON` NDJSON (`window_overhead/sharded_windows_off` vs
//! `window_overhead/sharded_windows_on`) and `bench_gate` checks the
//! self-relative ratio against a lenient 15% CI ceiling — same
//! noise-tolerance rationale as the trace-overhead gate.

use adscope::classify_trace_sharded;
use adscope::pipeline::PipelineOptions;
use adscope::window::WindowOptions;
use bench::{bench_classifier, bench_ecosystem, bench_trace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn window_overhead(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let classifier = bench_classifier(&eco);
    let trace = bench_trace(&eco);
    let n = trace.http_count() as u64;
    let threads = parallel::available_parallelism();

    let opts = |enabled: bool| PipelineOptions {
        window: WindowOptions {
            enabled,
            ..WindowOptions::default()
        },
        ..Default::default()
    };

    let mut group = c.benchmark_group("window_overhead");
    group.sample_size(15);
    group.throughput(Throughput::Elements(n));
    group.threads(threads);

    group.bench_function("sharded_windows_off", |b| {
        b.iter(|| {
            black_box(classify_trace_sharded(
                black_box(&trace),
                &classifier,
                opts(false),
                threads,
            ))
        })
    });

    // Hourly windows with an hourly watermark — the pipeline default.
    group.bench_function("sharded_windows_on", |b| {
        b.iter(|| {
            black_box(classify_trace_sharded(
                black_box(&trace),
                &classifier,
                opts(true),
                threads,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, window_overhead);
criterion_main!(benches);
