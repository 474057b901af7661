//! Shared world construction for all experiments: one ecosystem, one
//! active crawl, two RBN traces (classified), built lazily and reused.

use annoyed_users::prelude::*;
use browsersim::active::{run_crawl, ActiveResults};
use browsersim::drive::{drive, DriveOutput};
use std::time::Instant;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast smoke scale.
    Small,
    /// Default: minutes, statistically stable.
    Medium,
    /// Closer to paper proportions (slow).
    Large,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Canonical name, as accepted by [`Scale::parse`] (used in run
    /// manifests and replay argvs).
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    /// (publishers, ad_companies, trackers, crawl_sites, rbn2_households,
    ///  rbn2_hours, rbn1_households, rbn1_days)
    pub fn knobs(self) -> (usize, usize, usize, usize, usize, f64, usize, f64) {
        match self {
            Scale::Small => (120, 14, 16, 120, 60, 6.0, 40, 1.0),
            Scale::Medium => (400, 28, 36, 1000, 300, 15.5, 150, 4.0),
            Scale::Large => (800, 40, 60, 1000, 900, 15.5, 400, 4.0),
        }
    }
}

/// The lazily built shared world.
pub struct World {
    pub scale: Scale,
    /// The ecosystem seed (recorded in run manifests).
    pub seed: u64,
    pub eco: Ecosystem,
    pub classifier: PassiveClassifier,
    /// Worker threads for the sharded classification stage (`--threads`).
    pub threads: usize,
    active: Option<ActiveResults>,
    rbn1: Option<RbnData>,
    rbn2: Option<RbnData>,
    crawl_sites: usize,
}

/// One RBN trace with its classification and population ground truth.
pub struct RbnData {
    pub classified: ClassifiedTrace,
    pub truth: Vec<browsersim::population::BrowserTruth>,
    pub ground: Vec<browsersim::drive::BrowserGroundTruth>,
    /// Raw→anonymized address mapping (ground-truth joins only).
    pub addr_map: std::collections::HashMap<u32, u32>,
    pub households: usize,
}

impl World {
    pub fn new(scale: Scale, seed: u64, threads: usize) -> World {
        let (publishers, ad_companies, trackers, crawl_sites, ..) = scale.knobs();
        let t = Instant::now();
        let eco = Ecosystem::generate(EcosystemConfig {
            publishers,
            ad_companies,
            trackers,
            seed,
            ..Default::default()
        });
        let classifier = PassiveClassifier::new(vec![
            eco.lists.easylist(),
            eco.lists.regional(),
            eco.lists.easyprivacy(),
            eco.lists.acceptable(),
        ]);
        eprintln!(
            "[world] ecosystem: {} publishers, {} companies, {} servers, {} filter rules ({:.1}s)",
            eco.publishers.len(),
            eco.companies.len(),
            eco.servers.len(),
            classifier.engine().filter_count(),
            t.elapsed().as_secs_f64()
        );
        World {
            scale,
            seed,
            eco,
            classifier,
            threads: threads.max(1),
            active: None,
            rbn1: None,
            rbn2: None,
            crawl_sites: crawl_sites.min(publishers),
        }
    }

    /// The §4 active crawl (cached).
    pub fn active(&mut self) -> &ActiveResults {
        if self.active.is_none() {
            let t = Instant::now();
            let res = run_crawl(
                &self.eco,
                &ActiveConfig {
                    sites: self.crawl_sites,
                    seed: 0xAC71,
                },
            );
            eprintln!(
                "[world] active crawl: {} sites x 7 profiles ({:.1}s)",
                self.crawl_sites,
                t.elapsed().as_secs_f64()
            );
            self.active = Some(res);
        }
        self.active.as_ref().expect("just built")
    }

    /// Build RBN-2 (15.5 h peak trace) if not yet built.
    pub fn ensure_rbn2(&mut self) {
        if self.rbn2.is_none() {
            let (.., rbn2_households, rbn2_hours, _, _) = self.scale.knobs();
            let data = self.drive_rbn(DriveConfig::rbn2(rbn2_hours), rbn2_households, 0xB52);
            self.rbn2 = Some(data);
        }
    }

    /// RBN-2 data (call [`Self::ensure_rbn2`] first or use via `rbn2()`).
    pub fn rbn2_ref(&self) -> &RbnData {
        self.rbn2.as_ref().expect("ensure_rbn2 first")
    }

    /// RBN-2 (15.5 h peak trace, the usage-inference trace).
    pub fn rbn2(&mut self) -> &RbnData {
        self.ensure_rbn2();
        self.rbn2_ref()
    }

    /// Build RBN-1 (multi-day trace) if not yet built.
    pub fn ensure_rbn1(&mut self) {
        if self.rbn1.is_none() {
            let (.., rbn1_households, rbn1_days) = self.scale.knobs();
            let data = self.drive_rbn(DriveConfig::rbn1(rbn1_days), rbn1_households, 0xB51);
            self.rbn1 = Some(data);
        }
    }

    /// RBN-1 data (call [`Self::ensure_rbn1`] first or use via `rbn1()`).
    pub fn rbn1_ref(&self) -> &RbnData {
        self.rbn1.as_ref().expect("ensure_rbn1 first")
    }

    /// RBN-1 (multi-day trace, the characterization trace).
    pub fn rbn1(&mut self) -> &RbnData {
        self.ensure_rbn1();
        self.rbn1_ref()
    }

    fn drive_rbn(&self, config: DriveConfig, households: usize, seed: u64) -> RbnData {
        let t = Instant::now();
        let mut pop = Population::generate(
            &self.eco,
            &PopulationConfig {
                households,
                seed,
                ..Default::default()
            },
        );
        let DriveOutput {
            trace,
            ground_truth,
            addr_map,
        } = drive(&self.eco, &mut pop, &ActivityProfile::default(), &config);
        eprintln!(
            "[world] {}: {} households, {} HTTP + {} HTTPS records ({:.1}s)",
            config.name,
            households,
            trace.http_count(),
            trace.https_count(),
            t.elapsed().as_secs_f64()
        );
        let t2 = Instant::now();
        let classified = adscope::classify_trace_sharded(
            &trace,
            &self.classifier,
            PipelineOptions::default(),
            self.threads,
        );
        eprintln!(
            "[world] {}: classified {} requests on {} thread(s) ({:.1}s)",
            config.name,
            classified.requests.len(),
            self.threads,
            t2.elapsed().as_secs_f64()
        );
        RbnData {
            classified,
            truth: pop.truth,
            ground: ground_truth,
            addr_map,
            households,
        }
    }

    /// Ground-truth oracle: is this URL ad-related by construction of the
    /// synthetic web? (Company hosts and the generator's path markers.)
    pub fn ground_truth_is_ad(&self, url: &Url) -> bool {
        let host = url.host();
        let path = url.path();
        // The giant's static CDN is *content* infrastructure (fonts etc.)
        // unless the ad path markers appear — the overly-broad whitelist
        // rule covering it is precisely the §7.3 accuracy hazard.
        let is_static_cdn = host.contains("-cdn.");
        if !is_static_cdn
            && self.eco.companies.iter().any(|c| {
                c.domains
                    .iter()
                    .any(|d| http_model::is_subdomain_or_same(host, d))
            })
        {
            return true;
        }
        webgen::adtech::AD_PATH_MARKERS
            .iter()
            .chain(webgen::adtech::TRACK_PATH_MARKERS.iter())
            .any(|m| path.starts_with(m))
            || path.starts_with("/sponsor/")
            // Unlisted networks' markers (list lag — still ads in truth).
            || path.starts_with("/native/")
            || path.starts_with("/promo/")
            || path.starts_with("/stats/")
    }

    /// Map a server IP to its AS name.
    pub fn as_name_of(&self, ip: u32) -> Option<String> {
        self.eco
            .servers
            .server_by_ip(ip)
            .map(|s| self.eco.asns.get(s.asn).name.clone())
    }

    /// The activity threshold defining "active users", scaled: the paper's
    /// 1 K requests assumes a 15.5 h trace of heavy users; small scales
    /// lower it proportionally.
    pub fn active_threshold(&self) -> u64 {
        match self.scale {
            Scale::Small => 300,
            Scale::Medium | Scale::Large => 1_000,
        }
    }
}
