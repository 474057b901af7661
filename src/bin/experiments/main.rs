//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <id>... [--scale small|medium|large] [--seed N] [--threads N]
//! experiments explain --url <u> [--trace <file>]
//! experiments temporal [--trace <file>] [--width SECS] [--scale ...]
//! experiments serve --port N [--port-file PATH] [--pace SECS] [--scale ...]
//! experiments fetch --port N --path <p> [--retries N] [--check-metrics]
//! experiments stream --trace PATH | --rbn1 | --rbn2 [--write-trace PATH]
//!                    [--checkpoint-dir D] [--resume] [--quarantine PATH] [...]
//! experiments population [--scale ...] [--seed N] [--chunk-records N]
//!                    [--out PATH] [--ndjson PATH] [--exact-check]
//! experiments alerts [--scale ...] [--seed N] [--chunk-records N] [--delist N]
//!                    [--out PATH] [--ndjson PATH] [--check]
//!
//! ids: table1 fig2 table2 fig3 fig4 table3 sec63 fig5a fig5b table4
//!      fig6 sec73 sec81 table5 fig7 sensitivity validation robustness all
//! ```
//!
//! `--threads` sets the worker count for the sharded classification
//! stage (default: this machine's available parallelism). Results are
//! byte-identical at every thread count — only wall-clock changes.
//!
//! `explain` prints the verdict-provenance decision tree for one URL —
//! matched rule and source list, referrer chain, content-type inference
//! path — and exports the provenance NDJSON (see `explain.rs`).

mod alerts;
mod experiments;
mod explain;
mod manifest;
mod population;
mod serve;
mod stream;
mod temporal;
mod verify;
mod world;

use std::io::Write;
use world::{Scale, World};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `explain` has its own flag grammar (`--url` is not an experiment
    // id), so it branches before the generic argument loop.
    if args.first().map(String::as_str) == Some("explain") {
        explain::run(&args[1..]);
    }
    // Likewise `temporal` (windowed §5 table), `serve` (live scrape
    // endpoint), `fetch` (its CI smoke-test client), and `verify` (run
    // manifest re-check).
    match args.first().map(String::as_str) {
        Some("temporal") => temporal::run(&args[1..]),
        Some("serve") => serve::run_serve(&args[1..]),
        Some("fetch") => serve::run_fetch(&args[1..]),
        Some("stream") => stream::run(&args[1..]),
        Some("population") => population::run(&args[1..]),
        Some("alerts") => alerts::run(&args[1..]),
        Some("verify") => verify::run(&args[1..]),
        _ => {}
    }
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed: u64 = 0x5eed;
    let mut threads = parallel::available_parallelism();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("bad --scale value"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed value"));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("bad --threads value"));
            }
            "--help" | "-h" => usage(""),
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiment given");
    }
    if ids.iter().any(|s| s == "all") {
        ids = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let mut world = World::new(scale, seed, threads);
    let mut out = String::new();
    for id in &ids {
        match experiments::run(id, &mut world) {
            Some(section) => {
                println!("{section}");
                stamp_id(id, &section, &world);
                out.push_str(&section);
                out.push('\n');
            }
            None => usage(&format!("unknown experiment {id:?}")),
        }
    }
    // Persist the combined output for EXPERIMENTS.md refreshes. It lands
    // under target/ (with the metrics artifacts), not the repo root, so a
    // stale copy can never be committed.
    if ids.len() > 1 {
        let dir = manifest::out_dir();
        let path = dir.join("experiments_output.txt");
        if std::fs::create_dir_all(&dir).is_ok() {
            if let Ok(mut f) = std::fs::File::create(&path) {
                let _ = f.write_all(out.as_bytes());
                eprintln!(
                    "[experiments] combined output written to {}",
                    path.display()
                );
            }
        }
    }
}

/// Stamp a run manifest for the generic-loop ids that emit artifacts.
/// `robustness` is a pure function of (scale, seed) — its table is an
/// `exact` artifact with a replay argv. `metrics` is timing-bearing —
/// its artifacts are stamped `recorded` (drift detection only).
fn stamp_id(id: &str, section: &str, world: &World) {
    if id != "metrics" && id != "robustness" {
        return;
    }
    let dir = manifest::out_dir();
    let txt = dir.join(format!("{id}.txt"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&txt, section.as_bytes()))
    {
        eprintln!("error: cannot write {}: {e}", txt.display());
        std::process::exit(1);
    }
    let mut m = manifest::stamp(id);
    m.config("scale", world.scale.as_str());
    m.config("seed", world.seed);
    m.config("threads", world.threads);
    m.filter_fnv = Some(manifest::filter_fnv(&world.eco));
    let mode = if id == "robustness" {
        m.replay = vec![
            id.to_string(),
            "--scale".into(),
            world.scale.as_str().into(),
            "--seed".into(),
            world.seed.to_string(),
        ];
        obs::DigestMode::Exact
    } else {
        obs::DigestMode::Recorded
    };
    let mut stamp_artifact = |name: &str, path: &std::path::Path, mode| {
        if let Err(e) = m.add_artifact(name, path, mode) {
            eprintln!("error: cannot digest {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    stamp_artifact(&format!("{id}.txt"), &txt, mode);
    if id == "metrics" {
        // Timing-bearing sinks written by the experiment itself.
        stamp_artifact(
            "metrics.prom",
            &dir.join("metrics.prom"),
            obs::DigestMode::Recorded,
        );
        stamp_artifact(
            "events.ndjson",
            &dir.join("events.ndjson"),
            obs::DigestMode::Recorded,
        );
    }
    manifest::write(m, &dir.join(format!("{id}.manifest.json")));
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: experiments <id>... [--scale small|medium|large] [--seed N] [--threads N]\n\
         \x20      experiments explain --url <u> [--trace <file>]\n\
         \x20      experiments temporal [--trace <file>] [--width SECS]\n\
         \x20      experiments serve --port N [--port-file PATH] [--pace SECS]\n\
         \x20      experiments fetch --port N --path <p> [--retries N] [--check-metrics]\n\
         \x20      experiments stream --trace PATH | --rbn1 | --rbn2 [--write-trace PATH]\n\
         \x20          [--checkpoint-dir D] [--checkpoint-every N] [--resume] [--quarantine PATH]\n\
         \x20          [--report PATH] [--windows PATH] [--manifest PATH] [--chunk-records N]\n\
         \x20          [--stop-after-chunks N] [--throttle-ms N] [--serve-port N]\n\
         \x20          [--serve-port-file PATH] [--serve-linger] [--watchdog-ms N]\n\
         \x20      experiments population [--scale ...] [--seed N] [--chunk-records N]\n\
         \x20          [--out PATH] [--ndjson PATH] [--manifest PATH] [--exact-check]\n\
         \x20      experiments alerts [--scale ...] [--seed N] [--chunk-records N] [--delist N]\n\
         \x20          [--out PATH] [--ndjson PATH] [--manifest PATH] [--check]\n\
         \x20      experiments verify --manifest <path> [--scratch DIR] [--skip-replay]\n\
         ids: {} all",
        experiments::ALL_IDS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
