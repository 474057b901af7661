//! The end-to-end classification pipeline (Figure 1 of the paper).

use crate::classify::{AdLabel, ListKind, PassiveClassifier};
use crate::content::{infer_category_traced, ContentOptions, ContentSource};
use crate::degrade::DegradationReport;
use crate::extract::{extract, WebObject};
use crate::normalize::UrlNormalizer;
use crate::population::{PopulationOptions, PopulationSketches};
use crate::provenance::{self, RecordMeta, TraceOptions, Tracer, VerdictProvenance};
use crate::refmap::{RefMap, RefMapOptions};
use crate::window::WindowOptions;
use ::parallel::Pool;
use http_model::{ContentCategory, Url};
use netsim::record::{TlsConnection, Trace, TraceMeta};
use std::collections::HashMap;

/// Pipeline toggles — each disables one methodology component for the
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Referrer-map options (redirect repair, embedded URLs).
    pub refmap: RefMapOptions,
    /// Content-type inference options.
    pub content: ContentOptions,
    /// Normalize query strings before classification.
    pub normalize: bool,
    /// Verdict-provenance tracing (off by default).
    pub trace: TraceOptions,
    /// Windowed time-series aggregation (on by default; see
    /// [`crate::window`]).
    pub window: WindowOptions,
    /// Population sketch analytics (off by default; see
    /// [`crate::population`]).
    pub population: PopulationOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            refmap: RefMapOptions::default(),
            content: ContentOptions::default(),
            normalize: true,
            trace: TraceOptions::default(),
            window: WindowOptions::default(),
            population: PopulationOptions::default(),
        }
    }
}

/// One classified request — the record every characterization consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedRequest {
    /// Seconds since trace start.
    pub ts: f64,
    /// Anonymized client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// The (normalized) request URL.
    pub url: Url,
    /// Inferred page root, when reconstruction succeeded.
    pub page: Option<Url>,
    /// Inferred content category.
    pub category: ContentCategory,
    /// Raw Content-Type header (for Table 4, which reports raw MIME
    /// types); interned at extraction, so this is a shared handle.
    pub content_type: Option<std::sync::Arc<str>>,
    /// Response body bytes.
    pub bytes: u64,
    /// User-Agent string; interned at extraction.
    pub user_agent: Option<std::sync::Arc<str>>,
    /// TCP handshake (ms).
    pub tcp_handshake_ms: f64,
    /// HTTP handshake (ms).
    pub http_handshake_ms: f64,
    /// The classification verdict.
    pub label: AdLabel,
    /// The primary rule behind the verdict: first blocking filter in
    /// list order, else the whitelisting exception. `Some` exactly when
    /// `label.is_ad()`. The filter text is a shared handle into the
    /// engine's rule table, so this costs one pointer per ad request.
    pub rule: Option<(ListKind, std::sync::Arc<str>)>,
}

impl ClassifiedRequest {
    /// The §8.2 back-office latency proxy.
    pub fn backend_gap_ms(&self) -> f64 {
        (self.http_handshake_ms - self.tcp_handshake_ms).max(0.0)
    }
}

/// A fully classified trace.
pub struct ClassifiedTrace {
    /// Trace metadata.
    pub meta: TraceMeta,
    /// Classified HTTP requests, time-ordered.
    pub requests: Vec<ClassifiedRequest>,
    /// Opaque HTTPS flows (for the EasyList-download indicator).
    pub https_flows: Vec<TlsConnection>,
    /// Transactions dropped during extraction.
    pub dropped: usize,
    /// Per-stage accounting of degraded input the pipeline absorbed.
    pub degradation: DegradationReport,
    /// Verdict provenance of sampled requests, in record order. Empty
    /// unless [`PipelineOptions::trace`] enables the tracer.
    pub provenance: Vec<VerdictProvenance>,
    /// Windowed time series over the classified requests (empty when
    /// [`PipelineOptions::window`] is disabled). A pure function of
    /// `requests`, so it is byte-identical between sequential and
    /// sharded runs.
    pub windows: obs::window::WindowReport,
    /// Mergeable population sketches over the classified requests
    /// (`None` unless [`PipelineOptions::population`] is enabled). Like
    /// `windows`, a pure function of `requests`, so identical between
    /// sequential and sharded runs.
    pub population: Option<PopulationSketches>,
}

impl ClassifiedTrace {
    /// Total ad requests under the paper's definition.
    pub fn ad_request_count(&self) -> usize {
        self.requests.iter().filter(|r| r.label.is_ad()).count()
    }
}

/// Run the full pipeline over a captured trace, recording metrics into
/// the global [`obs`] registry. See [`classify_trace_in`].
pub fn classify_trace(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
) -> ClassifiedTrace {
    classify_trace_in(trace, classifier, opts, obs::global())
}

/// Run the full pipeline over a captured trace on the caller's thread,
/// recording metrics into an explicit registry (tests inject a hermetic
/// one). This is [`classify_trace_sharded_in`] at one thread.
///
/// Stage order per user, in time order: referrer map → content type
/// (extension/header now, redirect backfill after) → URL normalization →
/// classification. Classification must run *after* the backfill pass
/// because redirect targets fix the redirecting request's type (§3.1).
///
/// Each stage runs under an `adscope_stage` span (wall time in
/// `adscope_stage_duration_ns{stage=...}`, records in/out on the span
/// event), and every [`DegradationReport`] counter is bridged into
/// `adscope_degradation_total{reason=...}` so the exposition and the
/// report always agree.
pub fn classify_trace_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    registry: &obs::Registry,
) -> ClassifiedTrace {
    classify_trace_sharded_in(trace, classifier, opts, 1, registry)
}

/// Multi-core [`classify_trace`]: identical output, with the per-user
/// stages fanned out over `threads` workers (`0` means
/// [`parallel::available_parallelism`]). Metrics go to the global [`obs`]
/// registry.
pub fn classify_trace_sharded(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
) -> ClassifiedTrace {
    classify_trace_sharded_in(trace, classifier, opts, threads, obs::global())
}

/// Like [`classify_trace_sharded`], recording metrics into an explicit
/// registry.
///
/// The pipeline's only cross-record state is per user: the referrer map,
/// redirect repair and type backfill all key off the ⟨anonymized IP,
/// User-Agent⟩ pair (the paper's user axis, §6.1), and a redirect's
/// backfill target is by construction an earlier request of the *same*
/// user. So the per-user stages ([`classify_users`]) can run over any
/// partition of the users and produce the same requests:
///
/// * At one thread they run once, inline on the caller's thread, over
///   every record — no pool, no scatter.
/// * At N threads records are partitioned by a deterministic FNV-1a
///   hash of the user key (never `HashMap`'s randomized state) into 4N
///   shards, the stages run per shard on a [`Pool`], and the requests
///   scatter back into global record order.
///
/// Extraction and the out-of-order tally observe the *global* record
/// sequence, so they run before partitioning; every other
/// [`DegradationReport`] counter is a sum over records or users, so the
/// per-shard partials add up to the one-thread totals exactly. Windows
/// and population sketches run over the merged request vector. The
/// output is therefore byte-identical at every thread count.
pub fn classify_trace_sharded_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
    registry: &obs::Registry,
) -> ClassifiedTrace {
    // Stage: extract (URL reassembly + quarantine).
    let mut span = registry.span_with("adscope_stage", &[("stage", "extract")]);
    span.count("records_in", trace.records.len() as u64);
    let (objects, mut degradation, quarantined_ts) = crate::extract::extract_full(trace);
    let dropped = degradation.quarantined();
    span.count("records_out", objects.len() as u64);
    drop(span);

    // Out-of-order accounting observes the *global* timestamp sequence,
    // so it runs before records are partitioned by user.
    let mut prev_ts = f64::NEG_INFINITY;
    for obj in &objects {
        if obj.ts < prev_ts {
            degradation.out_of_order_records += 1;
        }
        prev_ts = obj.ts;
    }

    let normalizer = UrlNormalizer::new(classifier.engine(), opts.normalize);

    // Verdict-provenance tracer: `None` (the default) keeps every
    // tracing branch off the hot path. Every sampling decision is a pure
    // function of record identity, so shards agree record for record.
    let tracer = Tracer::new(&trace.meta.name, opts.trace);

    let run = |positions: &[usize]| {
        classify_users(
            &objects,
            positions,
            classifier,
            &normalizer,
            opts,
            tracer.as_ref(),
            registry,
        )
    };
    let pool = Pool::new(threads);
    let (requests, mut tagged_provenance) = if pool.threads() <= 1 {
        let all: Vec<usize> = (0..objects.len()).collect();
        let out = run(&all);
        degradation.absorb(&out.partials);
        (out.requests, out.provenance)
    } else {
        // More shards than workers smooths out user-size skew without
        // affecting the output; only wall-clock balance changes.
        let nshards = pool.threads() as u64 * 4;
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); nshards as usize];
        for (pos, obj) in objects.iter().enumerate() {
            shards[crate::stream::shard_of(obj.client_ip, obj.user_agent.as_deref(), nshards)]
                .push(pos);
        }
        shards.retain(|s| !s.is_empty());
        let outputs = pool.map(shards, |_, positions| (run(&positions), positions));
        let mut slots: Vec<Option<ClassifiedRequest>> = (0..objects.len()).map(|_| None).collect();
        let mut provenance = Vec::new();
        for (out, positions) in outputs {
            degradation.absorb(&out.partials);
            provenance.extend(out.provenance);
            for (req, pos) in out.requests.into_iter().zip(positions) {
                debug_assert!(slots[pos].is_none(), "each record classified exactly once");
                slots[pos] = Some(req);
            }
        }
        let requests = slots
            .into_iter()
            .map(|s| s.expect("every record belongs to exactly one shard"))
            .collect();
        (requests, provenance)
    };
    // Restore the record order before publishing, so the trace sink's
    // contents are byte-identical at any thread count.
    tagged_provenance.sort_unstable_by_key(|(pos, _)| *pos);
    let provenance: Vec<VerdictProvenance> =
        tagged_provenance.into_iter().map(|(_, vp)| vp).collect();

    let ad_count = requests.iter().filter(|r| r.label.is_ad()).count();
    registry
        .counter("adscope_requests_classified_total")
        .add(requests.len() as u64);
    registry
        .counter("adscope_ad_requests_total")
        .add(ad_count as u64);
    // Bridge every degradation counter into label space so the
    // exposition and the report always reconcile.
    for (reason, count) in degradation.counts() {
        registry
            .counter_with("adscope_degradation_total", &[("reason", reason)])
            .add(count as u64);
    }
    provenance::publish(&provenance, registry);

    // Stage: windowed aggregation over the final request vector.
    let windows = if opts.window.enabled {
        let mut span = registry.span_with("adscope_stage", &[("stage", "window")]);
        span.count("records_in", requests.len() as u64);
        let windows = crate::window::aggregate(&requests, &quarantined_ts, opts.window);
        span.count("windows_out", windows.windows.len() as u64);
        drop(span);
        crate::window::publish(&windows, registry);
        windows
    } else {
        obs::window::WindowReport::default()
    };

    // Stage: population sketches over the final request vector.
    let population = if opts.population.enabled {
        let mut span = registry.span_with("adscope_stage", &[("stage", "population")]);
        span.count("records_in", requests.len() as u64);
        let mut sketches = PopulationSketches::new(opts.population);
        for r in &requests {
            sketches.observe(r);
        }
        drop(span);
        Some(sketches)
    } else {
        None
    };

    ClassifiedTrace {
        meta: trace.meta.clone(),
        requests,
        https_flows: trace.https_flows().cloned().collect(),
        dropped,
        degradation,
        provenance,
        windows,
        population,
    }
}

/// What [`classify_users`] hands back for one set of users.
struct UserStages {
    /// Classified requests, in `positions` order.
    requests: Vec<ClassifiedRequest>,
    /// Sampled verdict provenance, tagged with global record position.
    provenance: Vec<(usize, VerdictProvenance)>,
    /// The per-record and per-user degradation counters (refmap misses,
    /// broken redirect chains, content-type fallbacks).
    partials: DegradationReport,
}

/// The per-user stages over the records at `positions` (ascending global
/// indices into `objects`, covering every record of each user they
/// touch): pass 1 builds each user's referrer map and provisional
/// content types, pass 2 backfills redirecting requests' types from
/// their targets, pass 3 normalizes and classifies.
fn classify_users(
    objects: &[WebObject],
    positions: &[usize],
    classifier: &PassiveClassifier,
    normalizer: &UrlNormalizer,
    opts: PipelineOptions,
    tracer: Option<&Tracer>,
    registry: &obs::Registry,
) -> UserStages {
    let mut partials = DegradationReport::default();

    // Pass 1: per-user referrer map + provisional types.
    let mut span = registry.span_with("adscope_stage", &[("stage", "refmap")]);
    span.count("records_in", positions.len() as u64);
    let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
    let mut pages: Vec<Option<Url>> = Vec::with_capacity(positions.len());
    let mut categories: Vec<ContentCategory> = Vec::with_capacity(positions.len());
    // Per-record stage facts (Copy), collected only while tracing.
    let mut metas: Vec<RecordMeta> = Vec::new();
    // Record idx → local position, for backfill.
    let mut local_of_idx: HashMap<usize, usize> = HashMap::with_capacity(positions.len());
    let mut backfills: Vec<(usize, ContentCategory)> = Vec::new();
    for (local, &pos) in positions.iter().enumerate() {
        let obj = &objects[pos];
        local_of_idx.insert(obj.idx, local);
        let user_key = (obj.client_ip, obj.user_agent.as_deref());
        let map = per_user
            .entry(user_key)
            .or_insert_with(|| RefMap::new(opts.refmap));
        let entry = map.process(obj);
        let (cat, cat_src) =
            infer_category_traced(&obj.url, obj.content_type.as_deref(), opts.content);
        if tracer.is_some() {
            metas.push(RecordMeta {
                page_source: entry.ctx.source,
                hops: entry.ctx.hops,
                via_redirect: entry.ctx.via_redirect,
                content_source: cat_src,
            });
        }
        if let Some(redirecting_idx) = entry.backfill_type_to {
            backfills.push((redirecting_idx, cat));
        }
        if entry.ctx.page.is_none() {
            partials.refmap_misses += 1;
        }
        pages.push(entry.ctx.page);
        categories.push(cat);
    }
    for map in per_user.values() {
        partials.broken_redirect_chains += map.redirects_inserted() - map.redirects_consumed();
    }
    span.count("users", per_user.len() as u64);
    span.count("records_out", pages.len() as u64);
    drop(span);

    // Pass 2: redirect type backfill. The target is an earlier request of
    // the same user, so it is always among `positions`.
    let mut span = registry.span_with("adscope_stage", &[("stage", "backfill")]);
    span.count("records_in", backfills.len() as u64);
    let mut backfilled = 0u64;
    for (idx, cat) in backfills {
        if let Some(&local) = local_of_idx.get(&idx) {
            if cat != ContentCategory::Other {
                categories[local] = cat;
                backfilled += 1;
                if tracer.is_some() {
                    metas[local].content_source = ContentSource::Redirect;
                }
            }
        }
    }
    // A missing Content-Type that still ended with a usable category means
    // the extension/backfill fallback recovered it.
    for (local, &pos) in positions.iter().enumerate() {
        if objects[pos].content_type.is_none() && categories[local] != ContentCategory::Other {
            partials.content_type_fallbacks += 1;
        }
    }
    span.count("records_out", backfilled);
    drop(span);

    // Pass 3: normalize + classify. One scratch per call keeps the
    // compiled match path allocation-free.
    let mut span = registry.span_with("adscope_stage", &[("stage", "classify")]);
    span.count("records_in", positions.len() as u64);
    let mut provenance: Vec<(usize, VerdictProvenance)> = Vec::new();
    let mut scratch = abp_filter::ClassifyScratch::new();
    let requests: Vec<ClassifiedRequest> = positions
        .iter()
        .enumerate()
        .map(|(local, &pos)| {
            let obj = &objects[pos];
            let page = &pages[local];
            let url = normalizer.normalize(&obj.url);
            let (label, c) =
                classifier.classify_traced_in(&url, page.as_ref(), categories[local], &mut scratch);
            if let Some(t) = tracer {
                if let Some(cause) = t.cause(obj.idx as u64, &c, page.is_none()) {
                    provenance.push((
                        pos,
                        t.build(
                            cause,
                            obj,
                            normalizer,
                            classifier,
                            page.as_ref(),
                            metas[local],
                            categories[local],
                            &c,
                        ),
                    ));
                }
            }
            let rule = classifier.primary_rule(&c);
            ClassifiedRequest {
                ts: obj.ts,
                client_ip: obj.client_ip,
                server_ip: obj.server_ip,
                url,
                page: page.clone(),
                category: categories[local],
                content_type: obj.content_type.clone(),
                bytes: obj.bytes,
                user_agent: obj.user_agent.clone(),
                tcp_handshake_ms: obj.tcp_handshake_ms,
                http_handshake_ms: obj.http_handshake_ms,
                label,
                rule,
            }
        })
        .collect();
    span.count("records_out", requests.len() as u64);
    span.count(
        "ads",
        requests.iter().filter(|r| r.label.is_ad()).count() as u64,
    );
    drop(span);

    UserStages {
        requests,
        provenance,
        partials,
    }
}

/// Convenience used across experiments and tests: objects list (extraction
/// output) without classification.
pub fn extract_objects(trace: &Trace) -> Vec<WebObject> {
    extract(trace).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::HttpTransaction;
    use netsim::record::TraceRecord;

    fn tx(
        ts: f64,
        client: u32,
        host: &str,
        uri: &str,
        referer: Option<&str>,
        ct: Option<&str>,
        location: Option<&str>,
    ) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: referer.map(str::to_string),
                user_agent: Some("UA".into()),
            },
            response: ResponseHeaders {
                status: if location.is_some() { 302 } else { 200 },
                content_type: ct.map(str::to_string),
                content_length: Some(500),
                location: location.map(str::to_string),
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 100.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        }
    }

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*jsp?callback=aslHandleAds*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    #[test]
    fn end_to_end_page_context_enables_third_party_rule() {
        // ||ads.example^$third-party only fires with page context.
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.5,
                5,
                "ads.example",
                "/creative.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.requests.len(), 2);
        assert!(
            !out.requests[0].label.is_ad(),
            "the page itself is not an ad"
        );
        assert!(out.requests[1].label.is_ad());
        assert_eq!(out.requests[1].page.as_ref().unwrap().host(), "pub.example");
    }

    #[test]
    fn redirect_backfill_fixes_type_and_page() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Redirector: no content type at all.
            tx(
                0.2,
                5,
                "r.example",
                "/go?id=1",
                Some("http://pub.example/"),
                None,
                Some("http://media.example/spot.mp4"),
            ),
            // Target arrives with no referer.
            tx(
                0.3,
                5,
                "media.example",
                "/spot.mp4",
                None,
                Some("video/mp4"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        // The redirector's category is backfilled from the target (media).
        assert_eq!(out.requests[1].category, ContentCategory::Media);
        // The target's page was stitched across the redirect.
        assert_eq!(out.requests[2].page.as_ref().unwrap().host(), "pub.example");
    }

    #[test]
    fn normalization_applies_to_stored_urls() {
        let t = trace(vec![tx(
            0.0,
            5,
            "x.example",
            "/banners/a.gif?cb=1234567",
            None,
            Some("image/gif"),
            None,
        )]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.requests[0].url.query(), Some("cb=X"));
        assert!(out.requests[0].label.is_ad());
        // Ablation: normalization off keeps the raw query.
        let out2 = classify_trace(
            &t,
            &classifier(),
            PipelineOptions {
                normalize: false,
                ..Default::default()
            },
        );
        assert_eq!(out2.requests[0].url.query(), Some("cb=1234567"));
    }

    #[test]
    fn users_do_not_share_page_state() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Different client: orphan object must not inherit client 5's page.
            tx(
                0.5,
                6,
                "cdn.example",
                "/app.js",
                None,
                Some("application/javascript"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert!(out.requests[1].page.is_none());
    }

    #[test]
    fn https_flows_carried_through() {
        let mut records = vec![tx(
            0.0,
            5,
            "pub.example",
            "/",
            None,
            Some("text/html"),
            None,
        )];
        records.push(TraceRecord::Https(netsim::record::TlsConnection {
            ts: 1.0,
            client_ip: 5,
            server_ip: 77,
            server_port: 443,
            bytes: 3000,
        }));
        let t = trace(records);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.https_flows.len(), 1);
        assert_eq!(out.https_flows[0].server_ip, 77);
    }

    #[test]
    fn degradation_report_accounts_for_broken_input() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Redirect whose target never shows up: broken chain.
            tx(
                0.2,
                5,
                "r.example",
                "/go",
                Some("http://pub.example/"),
                None,
                Some("http://never.example/gone.gif"),
            ),
            // Quarantined: URL cannot be reassembled.
            tx(0.3, 5, "", "/lost", None, None, None),
            // Out of order, and Content-Type missing but the extension
            // recovers the category.
            tx(
                0.1,
                5,
                "img.example",
                "/a.gif",
                Some("http://pub.example/"),
                None,
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        let d = &out.degradation;
        assert_eq!(out.dropped, 1);
        assert_eq!(d.unparseable_urls, 1);
        assert_eq!(d.broken_redirect_chains, 1);
        assert_eq!(d.out_of_order_records, 1);
        // Redirector and image both lacked Content-Type; the quarantined
        // record is excluded before header accounting.
        assert_eq!(d.missing_content_type, 2);
        assert_eq!(d.content_type_fallbacks, 1, "only the .gif recovered");
        assert!(d.total() >= d.quarantined());
    }

    #[test]
    fn clean_trace_reports_no_degradation() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.1,
                5,
                "x.example",
                "/banners/a.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.degradation, DegradationReport::default());
        assert_eq!(out.degradation.total(), 0);
    }

    #[test]
    fn ad_request_count() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.1,
                5,
                "x.example",
                "/banners/a.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
            tx(
                0.2,
                5,
                "t.example",
                "/pixel/p.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.ad_request_count(), 2);
    }

    /// Sixty records over seven clients and three User-Agents (one
    /// absent), so every thread count splits users across shards.
    fn mixed_trace() -> Trace {
        let records = (0..60u32)
            .map(|i| {
                let (host, uri) = match i % 4 {
                    0 => ("pub.example", "/".to_string()),
                    1 => ("ads.example", format!("/creative{i}.gif")),
                    2 => ("x.example", format!("/banners/{i}.gif")),
                    _ => ("cdn.example", format!("/lib{i}.js")),
                };
                let mut r = tx(
                    i as f64 * 0.1,
                    i % 7,
                    host,
                    &uri,
                    Some("http://pub.example/"),
                    Some("image/gif"),
                    None,
                );
                if let TraceRecord::Http(t) = &mut r {
                    t.request.user_agent =
                        ["UA-A", "UA-B"].get(i as usize % 3).map(|s| s.to_string());
                }
                r
            })
            .collect();
        trace(records)
    }

    #[test]
    fn output_is_identical_at_every_thread_count() {
        let t = mixed_trace();
        let c = classifier();
        let one = classify_trace_in(&t, &c, PipelineOptions::default(), &obs::Registry::new());
        for threads in [2usize, 3, 8] {
            let reg = obs::Registry::new();
            let par = classify_trace_sharded_in(&t, &c, PipelineOptions::default(), threads, &reg);
            assert_eq!(par.requests, one.requests, "threads={threads}");
            assert_eq!(par.degradation, one.degradation, "threads={threads}");
            assert_eq!(par.dropped, one.dropped);
            assert_eq!(par.https_flows, one.https_flows);
            assert_eq!(par.meta, one.meta);
        }
    }

    #[test]
    fn empty_trace_classifies_to_empty() {
        for threads in [1usize, 4] {
            let reg = obs::Registry::new();
            let out = classify_trace_sharded_in(
                &trace(vec![]),
                &classifier(),
                PipelineOptions::default(),
                threads,
                &reg,
            );
            assert!(out.requests.is_empty());
            assert_eq!(out.degradation, DegradationReport::default());
        }
    }
}
