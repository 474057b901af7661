//! Sharded-pipeline equivalence: `classify_trace_sharded` must produce a
//! byte-identical [`ClassifiedTrace`] to the sequential `classify_trace`
//! for any trace and thread count — same requests in the same order, same
//! verdicts, and an identical merged [`DegradationReport`] — including on
//! traces degraded by `netsim::faults` at both the in-memory and wire
//! levels.
//!
//! Thread counts tested are {1, 2, 8}; set `ANNOYED_THREADS` to add an
//! extra count (CI runs the suite at 1 and 4).

use abp_filter::FilterList;
use adscope::classify::PassiveClassifier;
use adscope::classify_trace_sharded_in;
use adscope::pipeline::{classify_trace_in, PipelineOptions};
use adscope::provenance::TraceOptions;
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::{read_trace_lossy, write_trace};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Some(extra) = std::env::var("ANNOYED_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![
        FilterList::parse(
            "easylist",
            "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
        ),
        FilterList::parse("easyprivacy", "/pixel/\n"),
        FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
    ])
}

/// A randomized multi-user trace exercising every sharding-sensitive
/// feature: several ⟨IP, UA⟩ pairs (including absent UA), referers,
/// redirects with backfill targets, missing content types, out-of-order
/// timestamps, and quarantined (empty-host) records.
fn messy_trace(n: usize, users: u32, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let client = rng.gen_range(1..=users);
        let ua = match rng.gen_range(0..4) {
            0 => Some("UA-Desktop/1.0".to_string()),
            1 => Some("UA-Mobile/2.0".to_string()),
            2 => Some(String::new()),
            _ => None,
        };
        let mut ts = i as f64 * 0.2;
        if rng.gen_bool(0.1) {
            ts -= 0.5; // out of order
        }
        let (host, uri, location, status) = match rng.gen_range(0..6) {
            0 => ("pub.example", "/".to_string(), None, 200),
            1 => ("ads.example", format!("/creative{i}.gif"), None, 200),
            2 => ("x.example", format!("/banners/{i}.gif"), None, 200),
            3 => (
                "r.example",
                format!("/go?id={i}"),
                Some(format!("http://media.example/spot{i}.mp4")),
                302,
            ),
            4 => ("media.example", format!("/spot{i}.mp4"), None, 200),
            _ => ("", "/quarantined".to_string(), None, 200),
        };
        let referer = if rng.gen_bool(0.6) {
            Some("http://pub.example/".to_string())
        } else {
            None
        };
        let content_type = match rng.gen_range(0..4) {
            0 => Some("text/html".to_string()),
            1 => Some("image/gif".to_string()),
            2 => Some("video/mp4".to_string()),
            _ => None,
        };
        records.push(TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: rng.gen_range(10..20),
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri,
                referer,
                user_agent: ua,
            },
            response: ResponseHeaders {
                status,
                content_type,
                content_length: Some(rng.gen_range(10..5000)),
                location,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: rng.gen_range(2.0..90.0),
        }));
    }
    Trace {
        meta: TraceMeta {
            name: "shard-equiv".into(),
            duration_secs: n as f64,
            subscribers: users as usize,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// Full equality of sequential and sharded output for one trace.
fn assert_equivalent(trace: &Trace, opts: PipelineOptions) {
    let c = classifier();
    let seq = classify_trace_in(trace, &c, opts, &obs::Registry::new());
    for threads in thread_counts() {
        let par = classify_trace_sharded_in(trace, &c, opts, threads, &obs::Registry::new());
        assert_eq!(par.requests, seq.requests, "threads={threads}");
        assert_eq!(par.degradation, seq.degradation, "threads={threads}");
        assert_eq!(par.dropped, seq.dropped, "threads={threads}");
        assert_eq!(par.https_flows, seq.https_flows, "threads={threads}");
        assert_eq!(par.meta, seq.meta, "threads={threads}");
        assert_eq!(par.windows, seq.windows, "windows, threads={threads}");
    }
}

proptest! {
    /// Clean (but messy) traces: sharded == sequential.
    #[test]
    fn sharded_equals_sequential(
        n in 1usize..120,
        users in 1u32..10,
        seed in 0u64..1000,
    ) {
        assert_equivalent(&messy_trace(n, users, seed), PipelineOptions::default());
    }

    /// Verdict provenance is thread-invariant down to the rendered
    /// bytes: with tracing on, the sampled set, the record order, every
    /// provenance field, and the NDJSON lines in the trace sink are
    /// identical at any thread count.
    #[test]
    fn sampled_provenance_is_byte_identical_across_threads(
        n in 1usize..100,
        users in 1u32..8,
        seed in 0u64..500,
    ) {
        let opts = PipelineOptions {
            trace: TraceOptions { sample_ppm: 300_000, always_sample_exceptional: true },
            ..Default::default()
        };
        let trace = messy_trace(n, users, seed);
        let c = classifier();
        let seq_reg = obs::Registry::new();
        let seq = classify_trace_in(&trace, &c, opts, &seq_reg);
        let seq_lines = seq_reg.traces().snapshot();
        for threads in thread_counts() {
            let par_reg = obs::Registry::new();
            let par = classify_trace_sharded_in(&trace, &c, opts, threads, &par_reg);
            prop_assert_eq!(&par.provenance, &seq.provenance, "threads={}", threads);
            prop_assert_eq!(&par.requests, &seq.requests, "threads={}", threads);
            let par_lines = par_reg.traces().snapshot();
            prop_assert_eq!(&par_lines, &seq_lines, "NDJSON bytes, threads={}", threads);
        }
        // The rendered lines are exactly the sampled records in order.
        prop_assert_eq!(seq_lines.len(), seq.provenance.len());
        for (line, vp) in seq_lines.iter().zip(&seq.provenance) {
            prop_assert_eq!(line, &vp.to_json());
        }
    }

    /// Ablations (normalization off) shard identically too.
    #[test]
    fn sharded_equals_sequential_without_normalization(
        n in 1usize..60,
        users in 1u32..6,
        seed in 0u64..300,
    ) {
        let opts = PipelineOptions { normalize: false, ..Default::default() };
        assert_equivalent(&messy_trace(n, users, seed), opts);
    }

    /// In-memory fault injection (dropped headers, skewed clocks,
    /// duplicates): the degraded trace classifies identically.
    #[test]
    fn sharded_equals_sequential_under_memory_faults(
        n in 1usize..80,
        users in 1u32..8,
        rate in 0.0f64..0.8,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let faulted = injector.corrupt_trace(&messy_trace(n, users, seed));
        assert_equivalent(&faulted, PipelineOptions::default());
    }

    /// Wire-level fault injection: whatever the lossy reader salvages
    /// classifies identically through both paths.
    #[test]
    fn sharded_equals_sequential_under_wire_faults(
        n in 1usize..60,
        users in 1u32..8,
        rate in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let mut bytes = Vec::new();
        write_trace(&messy_trace(n, users, seed), &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (recovered, _) = read_trace_lossy(corrupted.as_slice()).expect("lossy read");
        assert_equivalent(&recovered, PipelineOptions::default());
    }
}
