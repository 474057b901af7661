//! The repository benchmark.
//!
//! ```text
//! perfbench --workload rbn2_stream|rbn1_stateful|easylist_40k --seed N
//!           --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! A run generates (or reuses) the workload's seeded trace, builds the
//! classifier several times, then either stream-classifies the trace for
//! `S` seconds with `classify_stream_file` (`--trace 0`: end-to-end
//! metrics) or replays it one layer at a time under spans (`--trace 1`:
//! per-layer metrics). It checks the outputs and prints one JSON object
//! as the last line of standard output. Any failed check exits 1.
//!
//! Trace generation and each untraced pass run in child processes of this
//! binary: a pass's peak RSS then covers set-up and classification only,
//! and the run's medians average over several processes' memory layouts,
//! which move single-process timings by up to ±15 % on the machines this
//! was tuned on.

mod replay;
mod workload;

use adscope::normalize::UrlNormalizer;
use adscope::PassiveClassifier;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Case, Size, Workload};

/// Stream passes per untraced run, at least: the reported figure is
/// their median.
const MIN_PASSES: usize = 3;

/// Timed set-up per pass (at least two builds, after one untimed build
/// that faults in the heap). Short, so a run spends its seconds on
/// passes: single-process timings on shared machines move by up to ±15 %
/// from one process to the next, and the medians steady only with many
/// processes.
const SETUP_BURST: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    mode: Mode,
}

/// The benchmark run itself, or one of the child processes it spawns.
enum Mode {
    Run,
    Generate,
    Pass,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut mode = Mode::Run;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if let Some(m) = match flag {
            "--generate" => Some(Mode::Generate),
            "--pass" => Some(Mode::Pass),
            _ => None,
        } {
            mode = m;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => size = Size::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        size,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload rbn2_stream|rbn1_stateful|easylist_40k --seed N \
                 --seconds S --trace 0|1 [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = Case::dir_for(&work_dir(), args.workload, args.size, args.seed);
    let child = match args.mode {
        Mode::Run => None,
        Mode::Generate => Some(workload::generate(
            args.workload,
            args.size,
            args.seed,
            &dir,
        )),
        Mode::Pass => Some(pass(&args, &dir).map(|p| println!("{}", p.render()))),
    };
    if let Some(result) = child {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, &dir) {
        Ok(out) => {
            for line in &out.mismatches {
                eprintln!("CHECK FAILED: {line}");
            }
            println!("{}", out.render());
            if out.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generated fixtures live beside the benchmark's sources.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// The run's result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn render(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// This binary in a child `mode` (`--generate` or `--pass`) for the same
/// workload, seed, size and seconds.
fn child(args: &Args, mode: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([mode, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--size", args.size.name()])
        .args(["--seconds", &args.seconds.to_string()]);
    Ok(cmd)
}

/// Generate the case in a child process unless it is already on disk.
fn ensure_case(args: &Args, dir: &Path) -> Result<Case, String> {
    if !Case::is_complete(dir) {
        let started = Instant::now();
        let status = child(args, "--generate")?
            .status()
            .map_err(|e| format!("cannot spawn generator: {e}"))?;
        if !status.success() {
            return Err(format!("generator exited with {status}"));
        }
        eprintln!(
            "[perfbench] generated {} in {:.1}s",
            dir.display(),
            started.elapsed().as_secs_f64()
        );
    }
    Case::load(dir)
}

/// Set-up timings, one entry per classifier build.
#[derive(Default)]
struct Setup {
    parse_s: Vec<f64>,
    compile_s: Vec<f64>,
    build_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl Setup {
    /// Build the classifier and normalizer once untimed, then repeatedly
    /// for about `budget` (at least twice), and return the last build.
    /// Each build is dropped before the next starts.
    fn burst(&mut self, case: &Case, budget: Duration) -> (PassiveClassifier, UrlNormalizer) {
        let warm = PassiveClassifier::new(case.parse_lists());
        drop(UrlNormalizer::from_engine(warm.engine()));
        drop(warm);
        let started = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let lists = case.parse_lists();
            let t1 = Instant::now();
            let classifier = PassiveClassifier::new(lists);
            let t2 = Instant::now();
            let normalizer = UrlNormalizer::from_engine(classifier.engine());
            let t3 = Instant::now();
            self.parse_s.push((t1 - t0).as_secs_f64());
            self.compile_s.push((t2 - t1).as_secs_f64());
            self.build_s.push((t3 - t2).as_secs_f64());
            self.total_s.push((t3 - t0).as_secs_f64());
            reps += 1;
            if reps >= 2 && started.elapsed() >= budget || reps >= 500 {
                return (classifier, normalizer);
            }
        }
    }
}

/// What one untraced stream pass reports to the parent run: a child
/// process runs set-up and one pass, so its peak RSS covers exactly that,
/// and each pass samples a fresh process's memory layout.
#[derive(Debug, Default)]
struct PassLine {
    ns_per_record: f64,
    setup_s: f64,
    rss_mb: f64,
    records: u64,
    requests: u64,
    ads: u64,
    https: u64,
    failed: u64,
    render_fnv: u64,
    send_stalls: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

impl PassLine {
    fn render(&self) -> String {
        format!(
            "pass ns_per_record={} setup_s={} rss_mb={} records={} requests={} ads={} https={} \
             failed={} render_fnv={} send_stalls={} checkpoints={} checkpoint_bytes={}",
            self.ns_per_record,
            self.setup_s,
            self.rss_mb,
            self.records,
            self.requests,
            self.ads,
            self.https,
            self.failed,
            self.render_fnv,
            self.send_stalls,
            self.checkpoints,
            self.checkpoint_bytes
        )
    }

    fn parse(line: &str) -> Option<PassLine> {
        let mut p = PassLine::default();
        let mut fields = line.split_whitespace();
        if fields.next()? != "pass" {
            return None;
        }
        for field in fields {
            let (k, v) = field.split_once('=')?;
            match k {
                "ns_per_record" => p.ns_per_record = v.parse().ok()?,
                "setup_s" => p.setup_s = v.parse().ok()?,
                "rss_mb" => p.rss_mb = v.parse().ok()?,
                "records" => p.records = v.parse().ok()?,
                "requests" => p.requests = v.parse().ok()?,
                "ads" => p.ads = v.parse().ok()?,
                "https" => p.https = v.parse().ok()?,
                "failed" => p.failed = v.parse().ok()?,
                "render_fnv" => p.render_fnv = v.parse().ok()?,
                "send_stalls" => p.send_stalls = v.parse().ok()?,
                "checkpoints" => p.checkpoints = v.parse().ok()?,
                "checkpoint_bytes" => p.checkpoint_bytes = v.parse().ok()?,
                _ => return None,
            }
        }
        Some(p)
    }
}

/// The child side: set up, stream-classify the trace once, report.
fn pass(args: &Args, dir: &Path) -> Result<PassLine, String> {
    let case = Case::load(dir)?;
    let mut setup = Setup::default();
    let (classifier, _) = setup.burst(&case, SETUP_BURST);
    let ck_dir = case.dir.join("checkpoints");
    let _ = fs::remove_dir_all(&ck_dir);
    let opts = args.workload.options(&case, &ck_dir);
    let registry = obs::Registry::new();
    let started = Instant::now();
    let report = adscope::classify_stream_file(&case.trace_path(), &classifier, &opts, &registry)
        .map_err(|e| format!("stream failed: {e}"))?;
    let elapsed = started.elapsed();
    let rss_mb = obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    eprintln!(
        "[perfbench] pass {:.3}s, peak RSS {rss_mb:.1} MB",
        elapsed.as_secs_f64()
    );
    let checkpoint_bytes = fs::metadata(ck_dir.join(adscope::stream::CHECKPOINT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let _ = fs::remove_dir_all(&ck_dir);
    let r = &report;
    Ok(PassLine {
        ns_per_record: elapsed.as_nanos() as f64 / r.codec.records_read.max(1) as f64,
        setup_s: median(&setup.total_s),
        rss_mb,
        records: r.codec.records_read as u64,
        requests: r.requests,
        ads: r.ad_requests,
        https: r.https_flows,
        // Records the stream could not classify: codec skips, unparseable
        // URLs and poisoned records.
        failed: (r.codec.total_skipped()
            + r.degradation.unparseable_urls
            + r.degradation.poisoned_records) as u64,
        render_fnv: obs::fnv64(r.render().as_bytes()),
        send_stalls: registry
            .snapshot()
            .counter_sum("adscope_stream_send_stalls_total"),
        checkpoints: r.checkpoints_written,
        checkpoint_bytes,
    })
}

/// Run one pass in a child process and read its report.
fn spawn_pass(args: &Args) -> Result<PassLine, String> {
    let out = child(args, "--pass")?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(PassLine::parse)
        .ok_or_else(|| format!("unreadable pass report {stdout:?}"))
}

/// Check a pass against the generator's reference and the run's first
/// render digest.
fn check_pass(out: &mut Outcome, case: &Case, p: &PassLine, first: Option<u64>) {
    let e = &case.expected;
    out.check(p.records == e.records, || {
        format!("records read {} != generated {}", p.records, e.records)
    });
    out.check(p.requests == e.requests && p.ads == e.ads, || {
        format!(
            "stream requests/ads {}/{} != classify_trace {}/{}",
            p.requests, p.ads, e.requests, e.ads
        )
    });
    out.check(p.failed == 0, || {
        format!("{} records failed on a clean trace", p.failed)
    });
    if let Some(first) = first {
        out.check(p.render_fnv == first, || {
            format!(
                "render digest {:016x} != first run's {first:016x}",
                p.render_fnv
            )
        });
    }
    out.attempted += p.records;
    out.failed += p.failed;
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let case = ensure_case(args, dir)?;
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        metrics: Vec::new(),
    };
    // Every run reads exactly the bytes the generator wrote.
    let (fnv, bytes) = obs::fnv64_file(&case.trace_path()).map_err(|e| e.to_string())?;
    out.check(
        fnv == case.expected.trace_fnv && bytes == case.expected.trace_bytes,
        || {
            format!(
                "trace digest {fnv:016x} != generated {:016x}",
                case.expected.trace_fnv
            )
        },
    );
    let first = case.first_render_fnv();
    let render_fnv = if args.trace {
        traced(args, &case, first, &mut out)?
    } else {
        untraced(args, &case, first, &mut out)?
    };
    // Later runs of this case compare against the first run whose every
    // check passed.
    if first.is_none() && out.mismatches.is_empty() {
        case.store_render_fnv(render_fnv)?;
    }
    Ok(out)
}

fn untraced(
    args: &Args,
    case: &Case,
    first: Option<u64>,
    out: &mut Outcome,
) -> Result<u64, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<PassLine> = Vec::new();
    loop {
        let t = Instant::now();
        let p = spawn_pass(args)?;
        check_pass(
            out,
            case,
            &p,
            first.or(passes.first().map(|f| f.render_fnv)),
        );
        passes.push(p);
        if passes.len() >= MIN_PASSES && started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let of = |f: fn(&PassLine) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let ns = of(|p| p.ns_per_record);
    eprintln!(
        "[perfbench] {} {} passes, ns/record min {:.0} median {:.0} max {:.0}",
        args.workload.name(),
        ns.len(),
        percentile(&ns, 0.0),
        median(&ns),
        percentile(&ns, 100.0)
    );
    let classified = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics = vec![
        ("ns_per_record", median(&ns), "ns/record"),
        ("setup_s", median(&of(|p| p.setup_s)), "s"),
        ("peak_rss_mb", median(&of(|p| p.rss_mb)), "MB"),
        ("classified_share", classified, "ratio"),
    ];
    Ok(passes[0].render_fnv)
}

fn traced(args: &Args, case: &Case, first: Option<u64>, out: &mut Outcome) -> Result<u64, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // The untraced reference: the stream's own figures, and the counts the
    // replay must reproduce.
    let p = spawn_pass(args)?;
    check_pass(out, case, &p, first);
    let mut setup = Setup::default();

    let mut tracer = replay::Tracer::new();
    let mut passes = Vec::new();
    let mut protected_literals;
    loop {
        let t = Instant::now();
        let (classifier, normalizer) = setup.burst(case, SETUP_BURST);
        protected_literals = classifier.engine().query_literals().len();
        let counts = replay::run(args.workload, case, &classifier, &normalizer, &mut tracer)?;
        out.check(
            counts.records == p.records && counts.requests == p.requests && counts.https == p.https,
            || {
                format!(
                    "replay records/requests/https {}/{}/{} != stream {}/{}/{}",
                    counts.records, counts.requests, counts.https, p.records, p.requests, p.https
                )
            },
        );
        out.attempted += counts.records;
        passes.push(counts);
        if started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let spans_path = case.dir.join("spans.ndjson");
    fs::write(&spans_path, tracer.render_ndjson())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    // Per-layer self time, per replay pass.
    let self_ns = tracer.self_times();
    let npass = passes.len() as f64;
    let records: f64 = passes.iter().map(|c| c.records as f64).sum::<f64>();
    let layer_ns = |name: &str| -> f64 {
        let total: u64 = tracer
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .sum();
        total as f64 / records.max(1.0)
    };
    let chunk_p99_us = |name: &str| -> f64 {
        let per_chunk: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == name && s.chunk.is_some())
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        percentile(&per_chunk, 99.0)
    };
    let sum = |f: fn(&replay::Counts) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    let requests = sum(|c| c.requests).max(1.0);
    let decode_s: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "netsim.stream")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    let alerts_ms: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "adscope.alerts")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let serial_ns: f64 = LAYERS.iter().map(|l| layer_ns(l)).sum();
    eprintln!(
        "[perfbench] replay serial {serial_ns:.0} ns/record over {} passes; untraced stream {:.0} ns/record",
        passes.len(),
        p.ns_per_record
    );
    for l in LAYERS.iter().chain(&["chunk", "replay"]) {
        eprintln!("[perfbench]   {l:<20} {:>10.1} ns/record self", layer_ns(l));
    }
    out.metrics = vec![
        (
            "netsim.stream.ns_per_record",
            layer_ns("netsim.stream"),
            "ns/record",
        ),
        (
            "netsim.stream.mb_per_s",
            sum(|c| c.bytes) / 1e6 / decode_s.max(1e-9),
            "MB/s",
        ),
        (
            "netsim.stream.chunk_p99_us",
            chunk_p99_us("netsim.stream"),
            "us",
        ),
        (
            "adscope.extract.ns_per_record",
            layer_ns("adscope.extract"),
            "ns/record",
        ),
        (
            "adscope.extract.quarantined",
            sum(|c| c.quarantined) / npass,
            "count",
        ),
        (
            "adscope.refmap.ns_per_record",
            layer_ns("adscope.refmap"),
            "ns/record",
        ),
        (
            "adscope.refmap.chunk_p99_us",
            chunk_p99_us("adscope.refmap"),
            "us",
        ),
        (
            "adscope.refmap.hit_ratio",
            sum(|c| c.refmap_hits) / requests,
            "ratio",
        ),
        ("adscope.refmap.users", sum(|c| c.users) / npass, "count"),
        (
            "adscope.content.ns_per_record",
            layer_ns("adscope.content"),
            "ns/record",
        ),
        (
            "adscope.normalize.ns_per_record",
            layer_ns("adscope.normalize"),
            "ns/record",
        ),
        (
            "adscope.normalize.rewrite_ratio",
            sum(|c| c.rewrites) / requests,
            "ratio",
        ),
        (
            "adscope.normalize.protected_literals",
            protected_literals as f64,
            "count",
        ),
        (
            "abp_filter.match.ns_per_record",
            layer_ns("abp_filter.match"),
            "ns/record",
        ),
        (
            "abp_filter.match.ad_ratio",
            sum(|c| c.ads) / requests,
            "ratio",
        ),
        (
            "abp_filter.match.candidates_per_request",
            sum(|c| c.candidates) / requests,
            "count",
        ),
        (
            "abp_filter.match.prefilter_reject_ratio",
            sum(|c| c.prefilter_rejects) / sum(|c| c.candidates).max(1.0),
            "ratio",
        ),
        ("adscope.classify.parse_s", median(&setup.parse_s), "s"),
        ("adscope.classify.compile_s", median(&setup.compile_s), "s"),
        ("adscope.normalize.build_s", median(&setup.build_s), "s"),
        (
            "adscope.window.ns_per_record",
            layer_ns("adscope.window"),
            "ns/record",
        ),
        (
            "adscope.population.ns_per_record",
            layer_ns("adscope.population"),
            "ns/record",
        ),
        (
            "adscope.alerts.eval_ms",
            if alerts_ms.is_empty() {
                0.0
            } else {
                median(&alerts_ms)
            },
            "ms",
        ),
        (
            "adscope.stream.checkpoint_bytes",
            p.checkpoint_bytes as f64,
            "bytes",
        ),
        ("adscope.stream.checkpoints", p.checkpoints as f64, "count"),
        ("adscope.stream.send_stalls", p.send_stalls as f64, "count"),
        (
            "adscope.stream.overlap_ratio",
            serial_ns / p.ns_per_record,
            "ratio",
        ),
    ];
    Ok(p.render_fnv)
}

/// The layers whose self times add up to the replay's serial cost (the
/// `chunk` and `replay` spans' self time is the replay's own bookkeeping).
const LAYERS: [&str; 9] = [
    "netsim.stream",
    "adscope.extract",
    "adscope.refmap",
    "adscope.content",
    "adscope.normalize",
    "abp_filter.match",
    "adscope.window",
    "adscope.population",
    "adscope.alerts",
];
