//! Compiled vs reference engine throughput — the `>1 M req/s/core` gate.
//!
//! `small` runs the ecosystem's four generated lists (hundreds of rules);
//! `easylist` runs the EasyList-scale synthetic list (40 000 rules) with a
//! realistic mostly-miss request mix. Elements-throughput is requests, so
//! Criterion's `elem/s` reading *is* req/s/core (single-threaded loop);
//! `bench_gate` enforces the compiled-over-reference speedup floor and the
//! absolute 1 µs/request ceiling on `classify_compiled_easylist`.
//!
//! `normalize_easylist` runs the URL normalizer built from the same
//! 40 000-rule list over 2 000 URLs that each carry dynamic `cb=`/`ord=`
//! pairs, so every URL is checked against the list's protected query
//! literals; `bench_gate` holds it under 5 µs/URL.

use abp_filter::{ClassifyScratch, CompiledEngine, Engine, FilterList, Request};
use adscope::normalize::UrlNormalizer;
use bench::bench_ecosystem;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use http_model::{ContentCategory, Url};
use std::hint::black_box;
use webgen::{easylist_scale, ScaleConfig};

fn parsed_urls(raw: Vec<String>) -> Vec<(Url, ContentCategory)> {
    raw.iter()
        .enumerate()
        .map(|(i, u)| {
            (
                Url::parse(u).expect("generated URL parses"),
                ContentCategory::ALL[i % ContentCategory::ALL.len()],
            )
        })
        .collect()
}

fn run_reference(engine: &Engine, urls: &[(Url, ContentCategory)], page: &Url) -> usize {
    let mut hits = 0usize;
    for (url, cat) in urls {
        let v = engine.classify(&Request {
            url: black_box(url),
            source_url: Some(page),
            category: *cat,
        });
        if v.would_block() {
            hits += 1;
        }
    }
    hits
}

fn run_compiled(
    compiled: &CompiledEngine,
    scratch: &mut ClassifyScratch,
    urls: &[(Url, ContentCategory)],
    page: &Url,
) -> usize {
    let mut hits = 0usize;
    for (url, cat) in urls {
        let v = compiled.classify(
            &Request {
                url: black_box(url),
                source_url: Some(page),
                category: *cat,
            },
            scratch,
        );
        if v.would_block() {
            hits += 1;
        }
    }
    hits
}

fn run_normalize(normalizer: &UrlNormalizer, urls: &[Url]) -> usize {
    urls.iter()
        .filter(|url| normalizer.normalize(black_box(url)).query() != url.query())
        .count()
}

fn filter_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_engine");

    // Small: the ecosystem's four lists, the trace-pipeline workload.
    let eco = bench_ecosystem();
    let mut small_engine = Engine::new();
    for list in [
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ] {
        small_engine.add_list(list);
    }
    let small_compiled = CompiledEngine::compile(&small_engine);
    let small_urls = bench::bench_urls(&eco, 2_000);
    let page = Url::parse("http://www.dailyherald000.example/").unwrap();
    group.throughput(Throughput::Elements(small_urls.len() as u64));
    group.bench_function("classify_reference_small", |b| {
        b.iter(|| black_box(run_reference(&small_engine, &small_urls, &page)))
    });
    let mut scratch = ClassifyScratch::new();
    group.bench_function("classify_compiled_small", |b| {
        b.iter(|| {
            black_box(run_compiled(
                &small_compiled,
                &mut scratch,
                &small_urls,
                &page,
            ))
        })
    });

    // EasyList scale: 40 000 rules, ~5% of requests ad-related (a trace is
    // mostly misses — the case the prefilter exists for).
    let scale = easylist_scale(ScaleConfig {
        rules: 40_000,
        seed: 0xEA5E,
    });
    let mut big_engine = Engine::new();
    big_engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let big_compiled = CompiledEngine::compile(&big_engine);
    let big_urls = parsed_urls(scale.sample_urls(2_000, 0.05, 0xBE7C));
    group.throughput(Throughput::Elements(big_urls.len() as u64));
    group.bench_function("classify_reference_easylist", |b| {
        b.iter(|| black_box(run_reference(&big_engine, &big_urls, &page)))
    });
    group.bench_function("classify_compiled_easylist", |b| {
        b.iter(|| black_box(run_compiled(&big_compiled, &mut scratch, &big_urls, &page)))
    });

    // The same list's query literals protect values from the normalizer;
    // each URL's cache-buster pairs are looked up against them.
    let normalizer = UrlNormalizer::from_engine(&big_engine);
    let dynamic_urls: Vec<Url> = scale
        .sample_urls(2_000, 0.05, 0xBE7C)
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let q = format!("cb={}&lang=en&ord={}", 48_000_000 + i * 7_919, 900_000 + i);
            Url::parse(&format!("{u}?{q}")).expect("generated URL parses")
        })
        .collect();
    group.throughput(Throughput::Elements(dynamic_urls.len() as u64));
    group.bench_function("normalize_easylist", |b| {
        b.iter(|| black_box(run_normalize(&normalizer, &dynamic_urls)))
    });
    group.finish();
}

criterion_group!(benches, filter_engine);
criterion_main!(benches);
