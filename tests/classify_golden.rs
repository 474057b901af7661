//! Golden digest of the materialized classification pipeline.
//!
//! Two seeded traces go through `classify_trace_in` (one thread) and
//! `classify_trace_sharded_in` (one and four threads): a ~20 K-record
//! RBN-2-shaped evening capture, and a fault-injected copy of it whose
//! records were mutated, skewed out of order, serialized, garbled on the
//! wire and read back by the lossy decoder (so it covers quarantine,
//! out-of-order records and broken redirect chains). Every observable
//! output — each request's timestamp, URL, page, category, verdict and
//! primary rule, the degradation report, the windowed series, the
//! sampled verdict provenance and the population render — is rendered
//! canonically and hashed; the digests are pinned in
//! `tests/golden/classify_digest.txt`.
//!
//! `BLESS=1 cargo test --test classify_golden` regenerates the pinned
//! file after an intentional output change.

use adscope::pipeline::{classify_trace_in, ClassifiedTrace, PipelineOptions};
use adscope::{classify_trace_sharded_in, PassiveClassifier, PopulationOptions, TraceOptions};
use browsersim::{ActivityProfile, DriveConfig, Population, PopulationConfig};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceRecord};
use std::fmt::Write as _;
use webgen::{Ecosystem, EcosystemConfig};

const GOLDEN: &str = "tests/golden/classify_digest.txt";

/// The Criterion benches' fixture recipe: a one-hour evening capture of
/// 40 households over a 150-publisher ecosystem.
fn fixture() -> (PassiveClassifier, Trace) {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 150,
        ad_companies: 16,
        trackers: 18,
        cdn_edges: 16,
        hosting_servers: 24,
        seed: 0xBE7C,
        ..Default::default()
    });
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 40,
            seed: 0xBE7D,
            ..Default::default()
        },
    );
    let trace = browsersim::drive::drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "bench".into(),
            duration_secs: 3600.0,
            start_hour: 20,
            start_weekday: 2,
            slice_secs: 600.0,
            seed: 0xBE7E,
        },
    )
    .trace;
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    (classifier, trace)
}

/// Semantic faults (header drops, duplicates, unsorted skew), every
/// 97th request's Host and every 89th Referer mangled past parsing,
/// then wire faults on the serialized bytes, then the lossy reader.
fn degraded(trace: &Trace) -> Trace {
    let mut semantic = FaultInjector::new(FaultProfile::uniform(0.04), 0xFA17);
    let mut mutated = semantic.corrupt_trace(trace);
    for (i, record) in mutated.records.iter_mut().enumerate() {
        if let TraceRecord::Http(t) = record {
            if i % 97 == 0 {
                t.request.host.clear();
            }
            if i % 89 == 0 && t.request.referer.is_some() {
                t.request.referer = Some("::not a url::".into());
            }
        }
    }
    let mut bytes = Vec::new();
    netsim::codec::write_trace(&mutated, &mut bytes).expect("serialize");
    let mut wire = FaultInjector::new(FaultProfile::uniform(0.02), 0xFA18);
    let garbled = wire.corrupt_bytes(&bytes);
    let (trace, stats) = netsim::codec::read_trace_lossy(&garbled[..]).expect("lossy read");
    assert!(stats.total_skipped() > 0, "wire faults must cost lines");
    trace
}

fn opts() -> PipelineOptions {
    PipelineOptions {
        trace: TraceOptions {
            sample_ppm: 300_000,
            always_sample_exceptional: true,
        },
        population: PopulationOptions {
            enabled: true,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Canonical render of every observable output of a classified trace.
fn render(out: &ClassifiedTrace) -> String {
    let mut s = String::new();
    for r in &out.requests {
        let page = r.page.as_ref().map(|p| p.to_string());
        let rule = r.rule.as_ref().map(|(k, t)| (k.label(), &**t));
        let _ = writeln!(
            s,
            "{:?}\t{}\t{:?}\t{}\t{:?}\t{:?}",
            r.ts, r.url, page, r.category, r.label, rule
        );
    }
    let _ = writeln!(s, "dropped {} https {}", out.dropped, out.https_flows.len());
    let _ = writeln!(s, "{:?}", out.degradation);
    s.push_str(&out.windows.render_ndjson("golden"));
    for vp in &out.provenance {
        s.push_str(&vp.to_json());
        s.push('\n');
    }
    let population = adscope::population::finish_trace(out, &[], opts().population);
    s.push_str(&population.render());
    s
}

/// `name requests digest` for one classified trace.
fn digest_line(name: &str, out: &ClassifiedTrace) -> String {
    format!(
        "{name} {} {:016x}\n",
        out.requests.len(),
        obs::fnv64(render(out).as_bytes())
    )
}

#[test]
fn classified_trace_digests_match_golden() {
    let (classifier, clean) = fixture();
    let dirty = degraded(&clean);
    let mut pinned = String::new();
    for (name, trace) in [("clean", &clean), ("degraded", &dirty)] {
        let reg = obs::Registry::new();
        let seq = classify_trace_in(trace, &classifier, opts(), &reg);
        if name == "degraded" {
            let d = &seq.degradation;
            assert!(d.quarantined() > 0, "fixture must quarantine: {d:?}");
            assert!(d.out_of_order_records > 0, "fixture must reorder: {d:?}");
            assert!(
                d.broken_redirect_chains > 0,
                "fixture must break chains: {d:?}"
            );
        }
        assert!(!seq.provenance.is_empty() && seq.population.is_some());
        let line = digest_line(name, &seq);
        for threads in [1usize, 4] {
            let reg = obs::Registry::new();
            let par = classify_trace_sharded_in(trace, &classifier, opts(), threads, &reg);
            assert_eq!(
                digest_line(name, &par),
                line,
                "{name}: sharded at {threads} threads drifted from the one-thread run"
            );
        }
        pinned.push_str(&line);
    }
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &pinned).expect("bless golden");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read tests/golden/classify_digest.txt");
    assert_eq!(
        pinned, golden,
        "classification drifted from {GOLDEN} \
         (if the change is intentional, regenerate with BLESS=1)"
    );
}
