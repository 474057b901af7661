//! The traced replay: the same records as the streaming run, pushed one
//! layer at a time, with a span around each layer's public call.
//!
//! Per chunk the replay decodes with `ChunkReader`, then runs every record
//! of the chunk through extract, the per-user referrer map, content-type
//! inference, URL normalization, filter matching, the window aggregator
//! and (when the workload enables it) the population sketches. Each stage
//! is one span per chunk, a child of the chunk's span; the chunk sequence
//! number is the id the spans share. Alert evaluation runs once at the
//! end over the final window report. Spans stay in memory until the run
//! ends.
//!
//! The replay is serial and skips the stream's held-record protocol (a
//! redirecting request is classified with its own provisional type), so
//! its verdicts can differ from the stream's on a few redirects; its
//! record and request counts cannot.

use crate::workload::{Case, Workload, CHUNK_RECORDS};
use abp_filter::ClassifyScratch;
use adscope::normalize::UrlNormalizer;
use adscope::pipeline::{ClassifiedRequest, PipelineOptions};
use adscope::refmap::RefMap;
use adscope::window::WindowAggregator;
use adscope::{PassiveClassifier, PopulationSketches};
use http_model::{ContentCategory, Url};
use netsim::record::Trace;
use netsim::stream::ChunkReader;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The chunk sequence number, shared by a chunk's spans.
    pub chunk: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        chunk: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            chunk,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Run `f` under a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        chunk: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, Some(parent), chunk, start, end);
        out
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// All spans as NDJSON, one object per span.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{id},\"name\":\"{}\",\"parent\":", s.name);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"chunk\":");
            match s.chunk {
                Some(c) => {
                    let _ = write!(out, "{c}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Counts gathered where each layer does its work.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub records: u64,
    pub bytes: u64,
    pub requests: u64,
    pub https: u64,
    pub quarantined: u64,
    pub refmap_hits: u64,
    pub users: u64,
    pub rewrites: u64,
    pub ads: u64,
    pub candidates: u64,
    pub prefilter_rejects: u64,
}

/// Replay the case's trace once, appending spans to `tracer`.
pub fn run(
    w: Workload,
    case: &Case,
    classifier: &PassiveClassifier,
    normalizer: &UrlNormalizer,
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let mut popts: PipelineOptions = PipelineOptions::default();
    popts.window.watermark_secs = f64::INFINITY;
    popts.population.enabled = w.population();
    // The reader's own counters go to a throwaway registry; the engine's
    // candidate counters live in the global one it was compiled against.
    let registry = obs::Registry::new();
    let candidates = obs::global().counter("abp_candidates_total");
    let rejects = obs::global().counter("abp_prefilter_rejects_total");
    let (cand0, rej0) = (candidates.get(), rejects.get());

    let mut counts = Counts::default();
    let mut maps: HashMap<(u32, Option<Arc<str>>), RefMap> = HashMap::new();
    let mut windows = WindowAggregator::new(popts.window);
    let mut population = popts
        .population
        .enabled
        .then(|| PopulationSketches::new(popts.population));
    let mut scratch = ClassifyScratch::new();
    let mut next_idx = 0usize;

    let root_start = tracer.now();
    let root = tracer.push("replay", None, None, root_start, root_start);
    let file = File::open(case.trace_path()).map_err(|e| format!("open trace: {e}"))?;
    let mut reader = tracer
        .time("netsim.stream", root, None, || {
            ChunkReader::with_registry(file, CHUNK_RECORDS, &registry)
        })
        .map_err(|e| format!("trace header: {e}"))?;
    let meta = reader.meta().clone();
    let mut offset = reader.offset();
    loop {
        let start = tracer.now();
        let chunk = reader.next_chunk();
        let decoded = tracer.now();
        let Some(chunk) = chunk else { break };
        let seq = Some(chunk.seq);
        let cid = tracer.push("chunk", Some(root), seq, start, start);
        tracer.push("netsim.stream", Some(cid), seq, start, decoded);
        counts.records += chunk.stats.records_read as u64;
        counts.bytes += chunk.end_offset - offset;
        offset = chunk.end_offset;

        let trace = Trace {
            meta: meta.clone(),
            records: chunk.records,
        };
        let http = trace.http_count();
        counts.https += trace.https_count() as u64;
        // The decoded records are freed inside the span, as the stream's
        // router frees them after extraction.
        let (mut objs, degradation, _) = tracer.time("adscope.extract", cid, seq, || {
            let out = adscope::extract::extract_full(&trace);
            drop(trace);
            out
        });
        counts.quarantined += degradation.quarantined() as u64;
        // Per-chunk extraction numbers from 0; the referrer map keys
        // pending redirects by index, so make them trace-global.
        for o in &mut objs {
            o.idx += next_idx;
        }
        next_idx += http;

        let pages: Vec<Option<Url>> = tracer.time("adscope.refmap", cid, seq, || {
            objs.iter()
                .map(|o| {
                    maps.entry((o.client_ip, o.user_agent.clone()))
                        .or_insert_with(|| RefMap::new(popts.refmap))
                        .process(o)
                        .ctx
                        .page
                })
                .collect()
        });
        counts.refmap_hits += pages.iter().filter(|p| p.is_some()).count() as u64;

        let cats: Vec<ContentCategory> = tracer.time("adscope.content", cid, seq, || {
            objs.iter()
                .map(|o| {
                    adscope::content::infer_category(
                        &o.url,
                        o.content_type.as_deref(),
                        popts.content,
                    )
                })
                .collect()
        });

        let urls: Vec<Url> = tracer.time("adscope.normalize", cid, seq, || {
            objs.iter().map(|o| normalizer.normalize(&o.url)).collect()
        });
        counts.rewrites += urls.iter().zip(&objs).filter(|(u, o)| **u != o.url).count() as u64;

        let reqs: Vec<ClassifiedRequest> = tracer.time("abp_filter.match", cid, seq, || {
            objs.into_iter()
                .zip(urls)
                .zip(pages)
                .zip(cats)
                .map(|(((o, url), page), category)| {
                    let (label, c) =
                        classifier.classify_traced_in(&url, page.as_ref(), category, &mut scratch);
                    let rule = classifier.primary_rule(&c);
                    ClassifiedRequest {
                        ts: o.ts,
                        client_ip: o.client_ip,
                        server_ip: o.server_ip,
                        url,
                        page,
                        category,
                        content_type: o.content_type,
                        bytes: o.bytes,
                        user_agent: o.user_agent,
                        tcp_handshake_ms: o.tcp_handshake_ms,
                        http_handshake_ms: o.http_handshake_ms,
                        label,
                        rule,
                    }
                })
                .collect()
        });
        counts.requests += reqs.len() as u64;
        counts.ads += reqs.iter().filter(|r| r.label.is_ad()).count() as u64;

        if let Some(pop) = &mut population {
            tracer.time("adscope.population", cid, seq, || {
                for r in &reqs {
                    pop.observe(r);
                }
            });
        }
        // The window fold is the requests' last consumer, so it also pays
        // for freeing them, as the stream's worker does after its folds.
        tracer.time("adscope.window", cid, seq, || {
            for r in &reqs {
                windows.observe(r);
            }
            drop(reqs);
        });
        let end = tracer.now();
        tracer.spans[cid].end_ns = end;
    }
    let report = tracer.time("adscope.window", root, None, || windows.finish());
    if w == Workload::Rbn1Stateful {
        let engine = tracer.time("adscope.alerts", root, None, || {
            adscope::alerts::evaluate(&report, adscope::alerts::rule_pack())
        });
        std::hint::black_box(engine);
    }
    std::hint::black_box(population);
    let end = tracer.now();
    tracer.spans[root].end_ns = end;
    counts.users = maps.len() as u64;
    counts.candidates = candidates.get() - cand0;
    counts.prefilter_rejects = rejects.get() - rej0;
    Ok(counts)
}
