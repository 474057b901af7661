//! Trace serialization throughput (the NDJSON codec).

use bench::{bench_ecosystem, bench_trace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::codec::{read_trace, read_trace_lossy, write_trace};
use std::hint::black_box;

fn trace_io(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let trace = bench_trace(&eco);
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write");
    let bytes = buf.len() as u64;

    let mut group = c.benchmark_group("trace_io");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes));

    group.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes as usize);
            write_trace(black_box(&trace), &mut out).expect("write");
            black_box(out)
        })
    });

    group.bench_function("read", |b| {
        b.iter(|| black_box(read_trace(black_box(buf.as_slice())).expect("read")))
    });

    // The lossy reader on a clean trace: its resync machinery should cost
    // well under 10% over the strict path (the robustness tax).
    group.bench_function("read_lossy_clean", |b| {
        b.iter(|| black_box(read_trace_lossy(black_box(buf.as_slice())).expect("read")))
    });

    group.finish();
}

criterion_group!(benches, trace_io);
criterion_main!(benches);
