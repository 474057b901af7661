//! End-to-end differential gates for the compiled filter engine: every
//! label the compiled pipeline emits over a full synthetic trace (at 1 and
//! 4 worker threads) must equal the reference engine's verdict on the same
//! `(url, page, category)`, and over an EasyList-scale generated list the
//! per-request `Classification`s must be byte-identical — clean,
//! fault-injected, and adversarial inputs alike.

use abp_filter::{ClassifyScratch, CompiledEngine, Engine, Request};
use adscope::classify_trace_sharded;
use annoyed_users::prelude::*;
use browsersim::drive::{drive, DriveOutput};
use webgen::{easylist_scale, ScaleConfig};

fn eco() -> Ecosystem {
    Ecosystem::generate(EcosystemConfig {
        publishers: 60,
        ad_companies: 10,
        trackers: 10,
        cdn_edges: 6,
        hosting_servers: 10,
        seed: 0xD1FF,
        ..Default::default()
    })
}

fn lists(eco: &Ecosystem) -> Vec<FilterList> {
    vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]
}

/// Compiled pipeline vs the reference engine over a driven trace,
/// including the pipeline's fault injection (mislabeled content types,
/// broken referrer chains are part of every driven trace), at both thread
/// counts. The oracle is `classifier.engine()` — the reference engine the
/// compiled one was lowered from — asked about the very inputs the
/// pipeline classified.
#[test]
fn trace_labels_identical_across_engines_and_threads() {
    let eco = eco();
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 12,
            seed: 0xE0E0,
            ..Default::default()
        },
    );
    let DriveOutput { trace, .. } = drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig::rbn2(0.5),
    );
    let kinds: Vec<ListKind> = lists(&eco)
        .iter()
        .map(|l| ListKind::from_name(&l.name))
        .collect();
    let classifier = PassiveClassifier::new(lists(&eco));
    let opts = PipelineOptions::default();
    for threads in [1usize, 4] {
        let got = classify_trace_sharded(&trace, &classifier, opts, threads);
        assert!(!got.requests.is_empty(), "{threads} threads: empty trace");
        for r in &got.requests {
            let req = Request {
                url: &r.url,
                source_url: r.page.as_ref(),
                category: r.category,
            };
            let want = AdLabel::from_classification(&classifier.engine().classify(&req), &kinds);
            assert_eq!(
                r.label, want,
                "{threads} threads: label diverged on {}",
                r.url
            );
        }
    }
}

/// Compiled vs reference over the EasyList-scale generated list: tens of
/// thousands of rules, a hit/miss URL mix, plus adversarial URLs (long
/// token runs, separator storms, empty paths, uppercase).
#[test]
fn easylist_scale_classifications_identical() {
    let scale = easylist_scale(ScaleConfig {
        rules: 20_000,
        seed: 42,
    });
    let mut engine = Engine::new();
    engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let compiled = CompiledEngine::compile(&engine);
    let mut scratch = ClassifyScratch::new();
    let mut urls = scale.sample_urls(3_000, 0.5, 7);
    // Adversarial shapes: token floods, separator storms, case, no path,
    // rule-text-embedded-in-path.
    urls.push(format!("http://evil.example/{}", "a".repeat(900)));
    urls.push(format!("http://evil.example/{}", "ads/".repeat(200)));
    urls.push("http://evil.example/^^^^?%%%%".to_string());
    urls.push("HTTP://ADSERVBANNER0.COM/SERVE/UNIT1.JS".to_string());
    urls.push("http://adservbanner0.com".to_string());
    urls.push("http://x.com/||adservbanner0.com^".to_string());
    let pages = [
        Some("http://www.pub.example/"),
        Some("http://adservbanner1.com/"),
        None,
    ];
    let mut checked = 0usize;
    for (i, u) in urls.iter().enumerate() {
        let Ok(url) = Url::parse(u) else { continue };
        let page = pages[i % pages.len()].map(|p| Url::parse(p).unwrap());
        let cat = ContentCategory::ALL[i % ContentCategory::ALL.len()];
        let req = Request {
            url: &url,
            source_url: page.as_ref(),
            category: cat,
        };
        assert_eq!(
            engine.classify(&req),
            compiled.classify(&req, &mut scratch),
            "diverged on {u} ({cat:?})"
        );
        checked += 1;
    }
    assert!(checked > 2_900, "only {checked} URLs checked");
}
