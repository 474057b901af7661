//! Workload definitions and seeded fixture generation.
//!
//! Each workload is a trace shape plus a stream configuration. Its trace
//! is generated once per (workload, size, seed) into a case directory
//! under the work dir and reused by later runs. The case directory also
//! keeps small sidecars: the filter-list texts the classifier is built
//! from, the ABP download addresses, the trace's FNV digest with the
//! reference counts of the materialized pipeline, and the render digest
//! of the first measured run.

use abp_filter::FilterList;
use adscope::{CheckpointOptions, PassiveClassifier, PipelineOptions, StreamOptions};
use browsersim::{drive_stream, ActivityProfile, DriveConfig, Population, PopulationConfig};
use netsim::record::TraceMeta;
use netsim::stream::TraceWriter;
use std::fmt::Write as _;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use webgen::filterlists::names;
use webgen::{easylist_scale, Ecosystem, EcosystemConfig, ScaleConfig};

/// Ecosystem seed shared by every workload: the web (sites, ad networks,
/// filter lists) stays fixed while the workload seed varies who browses.
const ECOSYSTEM_SEED: u64 = 0x5eed;

/// Records per chunk: the stream's default, so chunk-level metrics read
/// like a production run.
pub const CHUNK_RECORDS: usize = 8192;

/// Checkpoint cadence of `rbn1_stateful`, in chunks (ten per pass).
const CHECKPOINT_EVERY: u64 = 4;

/// Full-size traces kept on disk at once (~200 MB each); older ones are
/// deleted, but their sidecars stay, so a regenerated trace is checked
/// against its first digest. Tiny traces are never deleted.
const KEEP_TRACES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Rbn2Stream,
    Rbn1Stateful,
    Easylist40k,
}

/// `Full` is the benchmark; `Tiny` is the self-test's seconds-long
/// variant of the same configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Rbn2Stream,
        Workload::Rbn1Stateful,
        Workload::Easylist40k,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rbn2Stream => "rbn2_stream",
            Workload::Rbn1Stateful => "rbn1_stateful",
            Workload::Easylist40k => "easylist_40k",
        }
    }

    /// Trace shape, household count, and the record count the trace is
    /// cut at. Households are heavy-tailed, so a fixed household count
    /// gives traces whose length varies by ±15 % across seeds; every
    /// seed drives more traffic than needed and keeps the first `records`
    /// records, so each seed measures the same amount of work.
    fn drive(self, size: Size) -> (DriveConfig, usize, u64) {
        match (self, size) {
            (Workload::Rbn2Stream, Size::Full) => (DriveConfig::rbn2(15.5), 120, 400_000),
            (Workload::Rbn1Stateful, Size::Full) => (DriveConfig::rbn1(3.0), 30, 340_000),
            (Workload::Easylist40k, Size::Full) => (DriveConfig::rbn2(1.0), 120, 12_000),
            (Workload::Rbn1Stateful, Size::Tiny) => (DriveConfig::rbn1(0.5), 6, 1_000),
            (_, Size::Tiny) => (DriveConfig::rbn2(3.0), 6, 1_000),
        }
    }

    pub fn population(self) -> bool {
        self == Workload::Rbn1Stateful
    }

    /// The stream configuration: one worker (one router thread plus one
    /// worker thread), windows on. `rbn1_stateful` adds population
    /// sketches, the alert rule pack and checkpoints into `ck_dir`.
    pub fn options(self, case: &Case, ck_dir: &Path) -> StreamOptions {
        let mut opts = StreamOptions {
            threads: 1,
            chunk_records: CHUNK_RECORDS,
            ..StreamOptions::default()
        };
        if self == Workload::Rbn1Stateful {
            opts.pipeline.population.enabled = true;
            opts.abp_ips = case.abp_ips.clone();
            opts.alerts = adscope::alerts::rule_pack();
            opts.checkpoint = Some(CheckpointOptions {
                dir: ck_dir.to_path_buf(),
                every_chunks: CHECKPOINT_EVERY,
                resume: false,
            });
        }
        opts
    }
}

/// splitmix64: derives independent generator seeds from one workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the generator recorded about a case's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub trace_fnv: u64,
    pub trace_bytes: u64,
    pub records: u64,
    /// `requests` and `ad_requests` of `adscope::pipeline::classify_trace`.
    pub requests: u64,
    pub ads: u64,
}

impl Expected {
    fn render(&self) -> String {
        format!(
            "trace_fnv={:016x}\ntrace_bytes={}\nrecords={}\nrequests={}\nads={}\n",
            self.trace_fnv, self.trace_bytes, self.records, self.requests, self.ads
        )
    }

    fn parse(text: &str) -> Option<Expected> {
        let field = |k: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(k)?.strip_prefix('='))
                .map(str::to_string)
        };
        Some(Expected {
            trace_fnv: u64::from_str_radix(&field("trace_fnv")?, 16).ok()?,
            trace_bytes: field("trace_bytes")?.parse().ok()?,
            records: field("records")?.parse().ok()?,
            requests: field("requests")?.parse().ok()?,
            ads: field("ads")?.parse().ok()?,
        })
    }
}

/// One (workload, size, seed) fixture on disk.
pub struct Case {
    pub dir: PathBuf,
    /// `(list name, list text)` in load order, EasyList first.
    pub lists: Vec<(String, String)>,
    pub abp_ips: Vec<u32>,
    pub expected: Expected,
}

impl Case {
    pub fn dir_for(work: &Path, w: Workload, size: Size, seed: u64) -> PathBuf {
        work.join(format!("{}-{}-{seed}", w.name(), size.name()))
    }

    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.ndjson")
    }

    /// Whether the case's trace and sidecars are all on disk.
    pub fn is_complete(dir: &Path) -> bool {
        dir.join("trace.ndjson").is_file() && dir.join("expected.txt").is_file()
    }

    pub fn load(dir: &Path) -> Result<Case, String> {
        let read = |name: &str| {
            fs::read_to_string(dir.join(name))
                .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
        };
        let expected = Expected::parse(&read("expected.txt")?)
            .ok_or_else(|| format!("malformed {}/expected.txt", dir.display()))?;
        let mut lists = Vec::new();
        for name in read("lists.txt")?.lines() {
            lists.push((name.to_string(), read(&format!("list-{name}.txt"))?));
        }
        let abp_ips = read("abp_ips.txt")?
            .split_whitespace()
            .map(|s| s.parse().map_err(|e| format!("bad abp_ips.txt: {e}")))
            .collect::<Result<_, String>>()?;
        Ok(Case {
            dir: dir.to_path_buf(),
            lists,
            abp_ips,
            expected,
        })
    }

    /// Parse every list, in load order.
    pub fn parse_lists(&self) -> Vec<FilterList> {
        self.lists
            .iter()
            .map(|(name, text)| FilterList::parse(name, text))
            .collect()
    }

    /// The render digest stored by the first measured run, if any.
    pub fn first_render_fnv(&self) -> Option<u64> {
        let text = fs::read_to_string(self.dir.join("render.fnv")).ok()?;
        u64::from_str_radix(text.trim(), 16).ok()
    }

    pub fn store_render_fnv(&self, fnv: u64) -> Result<(), String> {
        fs::write(self.dir.join("render.fnv"), format!("{fnv:016x}\n"))
            .map_err(|e| format!("cannot write render digest: {e}"))
    }
}

/// Generate a case: lists, trace, digest and the materialized
/// pipeline's counts. Runs in a child process so the measuring process's
/// peak RSS covers set-up and classification only.
pub fn generate(w: Workload, size: Size, seed: u64, dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(io)?;
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 120,
        ad_companies: 14,
        trackers: 16,
        seed: ECOSYSTEM_SEED,
        ..EcosystemConfig::default()
    });
    let mut lists = vec![
        (names::EASYLIST.to_string(), eco.lists.easylist_text.clone()),
        (names::REGIONAL.to_string(), eco.lists.regional_text.clone()),
        (
            names::EASYPRIVACY.to_string(),
            eco.lists.easyprivacy_text.clone(),
        ),
        (
            names::ACCEPTABLE.to_string(),
            eco.lists.acceptable_text.clone(),
        ),
    ];
    if w == Workload::Easylist40k {
        // An EasyList-kind list (no '-' in the name) at the paper's scale.
        let scale = easylist_scale(ScaleConfig {
            rules: 40_000,
            seed: 0xEA5E,
        });
        lists.insert(1, ("easylist_scale".to_string(), scale.text));
    }
    let mut index = String::new();
    for (name, text) in &lists {
        fs::write(dir.join(format!("list-{name}.txt")), text).map_err(io)?;
        let _ = writeln!(index, "{name}");
    }
    fs::write(dir.join("lists.txt"), index).map_err(io)?;
    let ips: Vec<String> = eco.abp_ips.iter().map(u32::to_string).collect();
    fs::write(dir.join("abp_ips.txt"), ips.join("\n")).map_err(io)?;

    let (mut config, households, limit) = w.drive(size);
    config.seed = mix(seed, 1);
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households,
            seed: mix(seed, 2),
            ..PopulationConfig::default()
        },
    );
    let meta = TraceMeta {
        name: config.name.clone(),
        duration_secs: config.duration_secs,
        subscribers: households,
        start_hour: config.start_hour,
        start_weekday: config.start_weekday,
    };
    // Written under a temporary name and renamed, so an interrupted
    // generation never leaves a trace that looks complete.
    let tmp = dir.join("trace.ndjson.partial");
    let file = fs::File::create(&tmp).map_err(io)?;
    let mut writer = TraceWriter::new(BufWriter::new(file), &meta).map_err(|e| e.to_string())?;
    let mut write_err = None;
    let mut written = 0u64;
    drive_stream(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &config,
        |batch| {
            for r in &batch {
                if write_err.is_none() && written < limit {
                    write_err = writer.write_record(r).err();
                    written += 1;
                }
            }
        },
    );
    if let Some(e) = write_err {
        return Err(format!("trace write failed: {e}"));
    }
    let (records, _) = writer.finish().map_err(|e| e.to_string())?;
    if records < limit {
        return Err(format!(
            "the drive produced {records} records, fewer than {limit}"
        ));
    }
    let (trace_fnv, trace_bytes) = obs::fnv64_file(&tmp).map_err(io)?;
    drop(eco);
    drop(pop);

    // Reference counts from the materialized pipeline over the same bytes.
    let trace = netsim::codec::read_trace(fs::File::open(&tmp).map_err(io)?)
        .map_err(|e| format!("reference read failed: {e}"))?;
    let parsed = lists
        .iter()
        .map(|(name, text)| FilterList::parse(name, text))
        .collect();
    let classified = adscope::pipeline::classify_trace(
        &trace,
        &PassiveClassifier::new(parsed),
        PipelineOptions::default(),
    );
    let expected = Expected {
        trace_fnv,
        trace_bytes,
        records,
        requests: classified.requests.len() as u64,
        ads: classified.ad_request_count() as u64,
    };
    // A case regenerated after its trace was evicted must reproduce the
    // first generation exactly.
    let sidecar = dir.join("expected.txt");
    if let Some(old) = fs::read_to_string(&sidecar)
        .ok()
        .and_then(|t| Expected::parse(&t))
    {
        if old != expected {
            return Err(format!(
                "regenerated trace differs from the first generation: {old:?} vs {expected:?}"
            ));
        }
    }
    fs::write(&sidecar, expected.render()).map_err(io)?;
    fs::rename(&tmp, dir.join("trace.ndjson")).map_err(io)?;
    if size == Size::Full {
        evict(dir.parent().unwrap_or(dir), dir);
    }
    Ok(())
}

/// Delete all but the `KEEP_TRACES` most recently generated full-size
/// traces under `work`, never `keep`'s.
fn evict(work: &Path, keep: &Path) {
    let Ok(entries) = fs::read_dir(work) else {
        return;
    };
    let mut traces: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("-full-"))
        .map(|e| e.path().join("trace.ndjson"))
        .filter(|p| !p.starts_with(keep))
        .filter_map(|p| Some((fs::metadata(&p).ok()?.modified().ok()?, p)))
        .collect();
    traces.sort();
    let excess = (traces.len() + 1).saturating_sub(KEEP_TRACES);
    for (_, p) in traces.into_iter().take(excess) {
        let _ = fs::remove_file(p);
    }
}
