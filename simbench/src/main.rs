//! Host-cost benchmark of the TPS simulator.
//!
//! ```text
//! simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! simbench --regenerate [--workload NAME]
//! ```
//!
//! A run repeats end-to-end passes of one workload, each in a fresh child
//! process so caches start empty and peak memory is per pass, for about
//! `--seconds`. With `--trace 0` it reports `events_per_s`, `setup_s`
//! (sampled in set-up processes of its own between passes) and
//! `peak_rss_mb`; with `--trace 1` each iteration also runs a traced pass
//! plus per-cell replays and reports per-layer cost. The
//! last line of standard output is the JSON result; the lines before it
//! start with `#` and carry provenance, quartiles and bases.
//!
//! Simulated statistics are held fixed: every pass checks its counters
//! (against the committed `expected/` values for the pinned seed, and
//! against the other passes of the run for any seed).

mod ledger;
mod replay;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ledger::Ledger;
use stats::{fmt_num, median, Summary};
use workload::{run_pass, Bench, Ctx};

/// The seed every workload runs with unless `--seed` overrides it; the
/// committed expected counters are for this seed.
const PINNED_SEED: u64 = tps_sim::DEFAULT_EXPERIMENT_SEED;

/// Upper bound on pool worker threads: the benchmark measures the same
/// two-way pool on every host that has at least two cores.
const MAX_THREADS: usize = 2;

/// Share of a run's time spent in set-up processes: after each pass they
/// run, at least one, until they have taken this share of the time so far.
/// A matrix spec's set-up time depends on the process it runs in by up to
/// ±25%, so `setup_s` pools many short processes.
const SETUP_SHARE: f64 = 0.1;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("wl.build_ms", "ms"),
    ("wl.gen_ns_per_event", "ns"),
    ("wl.events", "count"),
    ("machine.dispatch_ns_per_event", "ns"),
    ("machine.tenant_overhead_ratio", "ratio"),
    ("machine.tenants_killed", "count"),
    ("os.fault_ns", "ns"),
    ("os.faults", "count"),
    ("os.promotions", "count"),
    ("pt.pte_writes", "count"),
    ("mem.buddy_splits", "count"),
    ("mem.buddy_merges", "count"),
    ("mem.buddy_frees", "count"),
    ("os.shootdowns", "count"),
    ("os.op_cycles", "cycles"),
    ("mmu.access_ns", "ns"),
    ("tlb.l1_hits", "count"),
    ("tlb.stlb_hits", "count"),
    ("tlb.range_hits", "count"),
    ("pt.walks", "count"),
    ("pt.walk_refs", "count"),
    ("pt.mmu_cache_hits", "count"),
    ("experiment.build_ms", "ms"),
    ("pool.speedup", "ratio"),
    ("report.json_ms", "ms"),
    ("io.publish_ms", "ms"),
    ("io.checkpoint_ms", "ms"),
    ("report.bytes", "bytes"),
    ("io.journal_bytes", "bytes"),
    ("trace.overhead_ms", "ms"),
    ("self.wl_ms", "ms"),
    ("self.machine_ms", "ms"),
    ("self.os_ms", "ms"),
    ("self.mmu_ms", "ms"),
    ("self.experiment_ms", "ms"),
    ("self.remainder_ms", "ms"),
];

/// Bases and inputs of the per-layer metrics, printed on `#` lines only.
const BASES: [(&str, &str); 6] = [
    ("pass.untraced_wall_ms", "ms"),
    ("pass.traced_wall_ms", "ms"),
    ("pool.wall_ms", "ms"),
    ("pool.serial_cell_ms", "ms"),
    ("pool.threads", "count"),
    ("account.thread_ms", "ms"),
];

/// Layers whose self times the accounting sums, with their metric names.
const LAYERS: [(&str, &str); 5] = [
    ("wl", "self.wl_ms"),
    ("machine", "self.machine_ms"),
    ("os", "self.os_ms"),
    ("mmu", "self.mmu_ms"),
    ("experiment", "self.experiment_ms"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: simbench --workload {{suite-tps|suite-base|graph500|tenants64}} \
         [--seed N] [--seconds S] [--trace 0|1]\n       simbench --regenerate [--workload NAME]"
    );
    ExitCode::from(2)
}

/// What a child process runs.
#[derive(Clone, Copy)]
enum ChildKind {
    /// One untraced end-to-end pass.
    Pass,
    /// One traced pass plus its replays.
    Traced,
    /// Batches of set-ups only.
    Setup,
}

impl ChildKind {
    fn arg(self) -> &'static str {
        match self {
            ChildKind::Pass => "e2e",
            ChildKind::Traced => "traced",
            ChildKind::Setup => "setup",
        }
    }
}

enum Mode {
    Run { seconds: f64, trace: bool },
    Child(ChildKind),
    Regenerate,
}

struct Args {
    mode: Mode,
    benches: Vec<Bench>,
    seed: u64,
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    let mut bench = None;
    let mut seed = PINNED_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut regenerate = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--regenerate" => regenerate = true,
            "--workload" => bench = Some(Bench::parse(&args.next()?)?),
            "--seed" => seed = args.next()?.parse().ok()?,
            "--seconds" => {
                seconds = args.next()?.parse().ok()?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return None;
                }
            }
            "--trace" => {
                trace = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--child" => {
                let kind = args.next()?;
                child = Some(
                    [ChildKind::Pass, ChildKind::Traced, ChildKind::Setup]
                        .into_iter()
                        .find(|k| k.arg() == kind)?,
                )
            }
            _ => return None,
        }
    }
    let mode = match (regenerate, child) {
        (true, None) => Mode::Regenerate,
        (false, Some(kind)) => Mode::Child(kind),
        (false, None) => Mode::Run { seconds, trace },
        (true, Some(_)) => return None,
    };
    let benches = match (bench, &mode) {
        (Some(b), _) => vec![b],
        (None, Mode::Regenerate) => Bench::ALL.to_vec(),
        (None, _) => return None,
    };
    Some(Args {
        mode,
        benches,
        seed,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn expected_path(bench: Bench) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{}.txt", bench.name()))
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

fn ctx(bench: Bench, seed: u64) -> Ctx {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).expect("the benchmark directory is writable");
    Ctx {
        bench,
        seed,
        threads: threads(),
        out_dir,
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match args.mode {
        Mode::Regenerate => regenerate(&args.benches),
        Mode::Child(ChildKind::Setup) => {
            let samples: Vec<String> = workload::sample_setup(&ctx(args.benches[0], args.seed))
                .into_iter()
                .map(fmt_num)
                .collect();
            println!("setup_s {}", samples.join(","));
            ExitCode::SUCCESS
        }
        Mode::Child(kind) => child(
            args.benches[0],
            args.seed,
            matches!(kind, ChildKind::Traced),
        ),
        Mode::Run { seconds, trace } => match run(args.benches[0], args.seed, seconds, trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Rewrites the committed expected counters from a pinned-seed pass and
/// prints every field that changed.
fn regenerate(benches: &[Bench]) -> ExitCode {
    for &bench in benches {
        let pass = run_pass(&ctx(bench, PINNED_SEED), None);
        if !pass.failed.is_empty() {
            eprintln!(
                "simbench: {}: {} unit(s) failed their checks; expected counters not written",
                bench.name(),
                pass.failed.len()
            );
            return ExitCode::FAILURE;
        }
        let path = expected_path(bench);
        let old = Ledger::load(&path).unwrap_or_default();
        let diff = old.diff(&pass.ledger);
        for (key, was, now) in &diff {
            println!(
                "{}: {key}: {} -> {}",
                bench.name(),
                was.as_deref().unwrap_or("<none>"),
                now.as_deref().unwrap_or("<none>")
            );
        }
        if let Err(e) = std::fs::write(&path, pass.ledger.render()) {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{}: {} field(s) changed, {} written to {}",
            bench.name(),
            diff.len(),
            pass.ledger.len(),
            path.display()
        );
    }
    ExitCode::SUCCESS
}

/// One pass in this process; reports `key value` lines to the parent.
fn child(bench: Bench, seed: u64, traced: bool) -> ExitCode {
    let ctx = ctx(bench, seed);
    let (mut pass, values) = if traced {
        let run = replay::traced_run(&ctx);
        let path = ctx.out_dir.join(format!("spans-{}.jsonl", bench.name()));
        if let Err(e) = spans::write_jsonl(&path, &provenance(bench, seed), &run.spans) {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        (run.pass, run.values)
    } else {
        (run_pass(&ctx, None), BTreeMap::new())
    };
    if seed == PINNED_SEED {
        match Ledger::load(&expected_path(bench)) {
            Some(expected) => pass.check_against(&expected, "expected counters"),
            None => {
                for unit in pass.units.clone() {
                    pass.fail(&unit, "no expected counters committed for the pinned seed");
                }
            }
        }
    }
    let Some(rss_mb) = peak_rss_mb() else {
        eprintln!("simbench: peak resident memory is unavailable (no /proc/self/status)");
        return ExitCode::FAILURE;
    };
    println!("wall_s {}", fmt_num(pass.wall_s));
    println!("build_s {}", fmt_num(pass.build_s));
    println!("events {}", pass.events);
    println!("rss_mb {}", fmt_num(rss_mb));
    println!("attempted {}", pass.units.len());
    println!("failed {}", pass.failed.len());
    println!("fingerprint {:016x}", pass.ledger.fingerprint());
    for (name, value) in values {
        println!("layer.{name} {}", fmt_num(value));
    }
    ExitCode::SUCCESS
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parsed `key value` report of one child pass.
struct ChildOut(BTreeMap<String, String>);

impl ChildOut {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("child pass reported no numeric {key}"))
    }

    fn text(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    fn list(&self, key: &str) -> Result<Vec<f64>, String> {
        self.text(key)
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("child pass reported a bad {key}"))
            })
            .collect()
    }
}

fn run_child(bench: Bench, seed: u64, kind: ChildKind) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            kind.arg(),
            "--workload",
            bench.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("a pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(ChildOut(
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    ))
}

fn run(bench: Bench, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    println!("# provenance {}", provenance(bench, seed));
    // Iterations run while the next one, as long as the median one so
    // far, still ends within `seconds`; the first always runs. Set-up is
    // sampled in processes of its own, after each pass, so it never warms
    // a pass and each sample starts from a fresh process.
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    let mut setup_s = 0.0;
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        untraced.push(run_child(bench, seed, ChildKind::Pass)?);
        if trace {
            traced.push(run_child(bench, seed, ChildKind::Traced)?);
        } else {
            loop {
                let s = Instant::now();
                setups.push(run_child(bench, seed, ChildKind::Setup)?);
                setup_s += s.elapsed().as_secs_f64();
                if setup_s >= SETUP_SHARE * started.elapsed().as_secs_f64() {
                    break;
                }
            }
        }
        took.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&took) > seconds {
            break;
        }
    }

    // Correctness: per-pass checks, then identical counters in every pass.
    let all: Vec<&ChildOut> = untraced.iter().chain(&traced).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let first = all[0].text("fingerprint").to_string();
    for c in &all {
        let a = c.num("attempted")? as u64;
        let f = c.num("failed")? as u64;
        attempted += a;
        failed += if c.text("fingerprint") == first {
            f
        } else {
            eprintln!("simbench: a pass produced different counters than the first");
            a
        };
    }
    let mut correct = failed == 0;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if trace {
        let layers = per_layer(bench, &untraced, &traced, &mut correct)?;
        for (name, unit) in PER_LAYER {
            metrics.push((name.to_string(), layers[name], unit));
        }
    } else {
        let mut eps = Vec::new();
        let mut setup = Vec::new();
        let mut rss = Vec::new();
        for c in &untraced {
            eps.push(c.num("events")? / c.num("wall_s")?);
            rss.push(c.num("rss_mb")?);
        }
        for c in &setups {
            setup.extend(c.list("setup_s")?);
        }
        for ((name, unit), values) in END_TO_END.iter().zip([&eps, &setup, &rss]) {
            let s = Summary::of(values);
            println!("# {name} [{unit}]: {s}");
            metrics.push((name.to_string(), s.median, unit));
        }
        println!(
            "# setup_s samples: {} batch means from {} set-up processes",
            setup.len(),
            setups.len()
        );
        let builds = untraced
            .iter()
            .map(|c| c.num("build_s"))
            .collect::<Result<Vec<_>, _>>()?;
        println!(
            "# set-up inside each timed pass (first build of the process) [s]: {}",
            Summary::of(&builds)
        );
    }
    println!(
        "# failed_share [ratio]: {} ({failed} of {attempted} cells or tenants)",
        fmt_num(failed as f64 / attempted as f64)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        fmt_num(x)
    } else {
        "null".to_string()
    }
}

/// Aggregates the traced iterations into the per-layer metrics (medians
/// across iterations) and prints their bases and the accounting.
fn per_layer(
    bench: Bench,
    untraced: &[ChildOut],
    traced: &[ChildOut],
    correct: &mut bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let pool_threads = if bench == Bench::Tenants64 {
        1.0
    } else {
        threads() as f64
    };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (u, t) in untraced.iter().zip(traced) {
        let mut row = BTreeMap::new();
        for (name, _) in PER_LAYER.iter().chain(&BASES) {
            if let Ok(v) = t.num(&format!("layer.{name}")) {
                row.insert(*name, v);
            }
        }
        let untraced_ms = u.num("wall_s")? * 1e3;
        row.insert("pass.untraced_wall_ms", untraced_ms);
        row.insert(
            "trace.overhead_ms",
            row["pass.traced_wall_ms"] - untraced_ms,
        );
        row.insert("pool.threads", pool_threads);
        row.insert("account.thread_ms", pool_threads * untraced_ms);
        let layer_sum: f64 = LAYERS.iter().map(|(_, m)| row[m]).sum();
        row.insert("self.remainder_ms", pool_threads * untraced_ms - layer_sum);
        for (name, v) in row {
            samples.entry(name).or_default().push(v);
        }
    }
    let out: BTreeMap<&'static str, f64> =
        samples.iter().map(|(name, v)| (*name, median(v))).collect();
    let (dominant, dominant_ms) =
        LAYERS
            .iter()
            .map(|(layer, m)| (*layer, out[m]))
            .fold(
                ("", f64::MIN),
                |best, cur| if cur.1 > best.1 { cur } else { best },
            );
    let layer_total: f64 = LAYERS.iter().map(|(_, m)| out[m]).sum();
    let predicted_ms = LAYERS
        .iter()
        .find(|(l, _)| *l == bench.predicted_layer())
        .map(|(_, m)| out[m])
        .expect("the predicted layer is a layer");
    let holds = dominant == bench.predicted_layer();

    // Counts are deterministic: every iteration must report the same. The
    // journal is the exception: it records cells in completion order, and
    // each entry's sequence number and decimal CRC follow that order.
    for (name, unit) in PER_LAYER {
        let deterministic =
            matches!(unit, "count" | "bytes" | "cycles") && name != "io.journal_bytes";
        if deterministic {
            if let Some(v) = samples.get(name) {
                if v.iter().any(|x| x != &v[0]) {
                    eprintln!("simbench: {name} differs between traced iterations: {v:?}");
                    *correct = false;
                }
            }
        }
    }
    for (name, unit) in PER_LAYER {
        println!("# {name} [{unit}]: {}", Summary::of(&samples[name]));
    }
    for (name, unit) in BASES {
        println!("# base {name} [{unit}]: {}", Summary::of(&samples[name]));
    }
    if bench == Bench::Tenants64 {
        println!("# pool.speedup base: no experiment pool; the machines run one after the other");
    } else {
        println!(
            "# pool.speedup base: serial cell time {} ms / pool wall {} ms, on {} thread(s)",
            fmt_num(out["pool.serial_cell_ms"]),
            fmt_num(out["pool.wall_ms"]),
            pool_threads
        );
    }
    println!(
        "# machine.tenant_overhead_ratio base: {}",
        if bench == Bench::Tenants64 {
            "shared Machine::run time / sum of the same tenants' solo Machine::run times"
        } else {
            "one tenant per machine, so the shared run is the solo run"
        }
    );
    // The layer self times come from the traced pass and its replays, the
    // thread time from the untraced pass, which runs the same work in
    // another process. How far the two passes' wall times differ is how
    // far the host moved between them (plus tracing overhead); a remainder
    // below zero by more than that means the layers claim more time than
    // the program spent.
    let jitter_ms = pool_threads
        * samples["trace.overhead_ms"]
            .iter()
            .fold(0.0_f64, |worst, d| worst.max(d.abs()));
    let accounted = out["self.remainder_ms"] >= -jitter_ms;
    println!(
        "# accounting: {}: {} thread ms of the untraced pass = wl {} + machine {} + os {} + mmu {} \
         + experiment {} + remainder {} (pool idle, contention, harness; tolerance {} ms)",
        if accounted { "holds" } else { "FAILED" },
        fmt_num(out["account.thread_ms"]),
        fmt_num(out["self.wl_ms"]),
        fmt_num(out["self.machine_ms"]),
        fmt_num(out["self.os_ms"]),
        fmt_num(out["self.mmu_ms"]),
        fmt_num(out["self.experiment_ms"]),
        fmt_num(out["self.remainder_ms"]),
        fmt_num(jitter_ms),
    );
    println!(
        "# prediction: {} dominates {}: {} (largest layer: {dominant}, {} of {} layer ms; \
         predicted layer's share {})",
        bench.predicted_layer(),
        bench.name(),
        if holds { "holds" } else { "FAILED" },
        fmt_num(dominant_ms),
        fmt_num(layer_total),
        fmt_num(predicted_ms / layer_total)
    );
    Ok(out)
}

/// Provenance of every result, as a JSON object.
fn provenance(bench: Bench, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"scale\": \"{}\", \"threads\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_head\": \"{}\"}}",
        bench.name(),
        bench.scale(),
        threads(),
        env!("SIMBENCH_RUSTC"),
        git_head(Path::new(".git")).unwrap_or_else(|| "none".to_string()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git, so a checkout inside another repository never
/// reports the outer one.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_the_runner_prints() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for bench in Bench::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", bench.name())));
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            Bench::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the runner does not print"
        );
    }
}
