//! The four benchmark workloads and one end-to-end pass over each.
//!
//! A pass is what a researcher running `tps_run` pays for: set-up, every
//! cell or tenant from workload generation through the simulation, and
//! publication of the report. It times that whole span, then checks the
//! simulated results outside the timed region.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tps_core::TenantFaultCause;
use tps_sim::{
    write_atomic, ArtifactIo, ArtifactSink, ExperimentMatrix, ExperimentSpec, Machine,
    MachineBuilder, MachineConfig, MachineRunStats, Mechanism, RealIo, RunOptions, TenantOutcome,
    TenantSpec,
};
use tps_wl::{suite_names, tenant_seeds, Event, SuiteScale, Workload, WorkloadProfile};

use crate::ledger::{self, Ledger};
use crate::spans::{Recorder, RUN_CELL};

/// The ten suite benchmarks of `suite-tps` and `suite-base`.
pub const SUITE: [&str; 10] = [
    "gcc",
    "mcf",
    "omnetpp",
    "xalancbmk",
    "cactuBSSN",
    "fotonik3d",
    "roms",
    "gups",
    "xsbench",
    "dbx1000",
];

/// Suite tenants on each `tenants64` machine (the hog comes on top).
pub const TENANTS: usize = 64;

/// Physical memory of each `tenants64` machine: 1.5 GB. At 1 GB the THP
/// machine cannot hold all 64 tenants at once and OOM-kills one for every
/// seed, which would make a normal run fail its outcome check.
const TENANT_MACHINE_BYTES: u64 = 3 << 29;

/// The hog's memory cap: it is killed when its fifth 2 MB region would
/// exceed it.
pub const HOG_CAP: u64 = 8 << 20;

/// Set-up samples per set-up process: at least [`MIN_SETUP_SAMPLES`], more
/// while they add up to less than [`SETUP_BUDGET_S`], at most
/// [`MAX_SETUP_SAMPLES`]. `setup_s` is the median of every sample.
const MIN_SETUP_SAMPLES: usize = 3;
const MAX_SETUP_SAMPLES: usize = 10;
const SETUP_BUDGET_S: f64 = 0.05;

/// Shortest batch of set-ups one sample times. A matrix spec builds in
/// about a microsecond, so one build per sample would mostly measure the
/// clock and millisecond-long stalls of a shared host; a sample is the
/// mean of a batch this long.
const SETUP_BATCH_S: f64 = 0.005;

/// Times batches of set-ups, each long enough to dwarf the clock's
/// resolution, and returns the mean set-up time of each batch.
fn sample_setups<T>(mut setup: impl FnMut() -> T) -> Vec<f64> {
    let mut batch = |n: u32| {
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(setup());
        }
        t.elapsed().as_secs_f64()
    };
    let mut n = 1u32;
    while batch(n) < SETUP_BATCH_S && n < 1 << 20 {
        n *= 2;
    }
    let mut samples = Vec::with_capacity(MAX_SETUP_SAMPLES);
    let mut spent = 0.0;
    while samples.len() < MIN_SETUP_SAMPLES
        || (spent < SETUP_BUDGET_S && samples.len() < MAX_SETUP_SAMPLES)
    {
        let s = batch(n);
        spent += s;
        samples.push(s / f64::from(n));
    }
    samples
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Ten small-scale suite cells under TPS: the fault/promotion path.
    SuiteTps,
    /// The same ten benches under THP, CoLT and RMM with a checkpoint
    /// journal: TLB probes, walks, CoLT and the range TLB.
    SuiteBase,
    /// graph500 under TPS and THP: workload generation and host memory.
    Graph500,
    /// 64 mixed tenants plus a capped hog on a TPS and a THP machine:
    /// dispatch, attribution, shootdowns, kills and reclaim.
    Tenants64,
}

impl Bench {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Bench; 4] = [
        Bench::SuiteTps,
        Bench::SuiteBase,
        Bench::Graph500,
        Bench::Tenants64,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SuiteTps => "suite-tps",
            Bench::SuiteBase => "suite-base",
            Bench::Graph500 => "graph500",
            Bench::Tenants64 => "tenants64",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Suite scale of the workload's benchmarks.
    pub fn scale(self) -> SuiteScale {
        match self {
            Bench::Tenants64 => SuiteScale::Test,
            _ => SuiteScale::Small,
        }
    }

    /// The layer the prediction table says dominates this workload's time.
    pub fn predicted_layer(self) -> &'static str {
        match self {
            Bench::SuiteTps => "os",
            Bench::SuiteBase => "mmu",
            Bench::Graph500 => "wl",
            Bench::Tenants64 => "machine",
        }
    }

    /// The experiment spec of a matrix workload; `None` for `tenants64`.
    pub fn spec(self, seed: u64, threads: usize) -> Option<ExperimentSpec> {
        let (benches, mechs): (&[&str], &[Mechanism]) = match self {
            Bench::SuiteTps => (&SUITE, &[Mechanism::Tps]),
            Bench::SuiteBase => (&SUITE, &[Mechanism::Thp, Mechanism::Colt, Mechanism::Rmm]),
            Bench::Graph500 => (&["graph500"], &[Mechanism::Tps, Mechanism::Thp]),
            Bench::Tenants64 => return None,
        };
        Some(
            ExperimentSpec::new()
                .benches(benches.iter().copied())
                .mechanisms(mechs.iter().copied())
                .scale(self.scale())
                .seed(seed)
                .threads(threads),
        )
    }

    /// Whether the workload's matrix writes a checkpoint journal.
    fn journals(self) -> bool {
        self == Bench::SuiteBase
    }
}

/// The two machines of `tenants64`.
pub const TENANT_MECHS: [Mechanism; 2] = [Mechanism::Tps, Mechanism::Thp];

/// Everything a pass runs with.
pub struct Ctx {
    /// The workload.
    pub bench: Bench,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads of the experiment pool.
    pub threads: usize,
    /// Directory for the report and journal.
    pub out_dir: PathBuf,
}

/// What one pass measured and produced.
pub struct Pass {
    /// Host seconds from the start of set-up until the report is published.
    pub wall_s: f64,
    /// Host seconds of the pass's set-up, inside `wall_s`.
    pub build_s: f64,
    /// Simulated events completed: translated accesses plus served `mmap`
    /// and `munmap` calls, over all cells, tenants and both phases.
    pub events: u64,
    /// `<machine>/<tenant>` of every tenant of every machine: the units
    /// `attempted` counts.
    pub units: Vec<String>,
    /// Units that failed a check; the reasons go to standard error.
    pub failed: BTreeSet<String>,
    /// The pass's deterministic counters.
    pub ledger: Ledger,
    /// Tenants the machines killed (the hogs included).
    pub killed: u64,
    /// Published report size.
    pub report_bytes: u64,
    /// Bytes written to the checkpoint journal (traced passes only).
    pub journal_bytes: u64,
    /// Wall time of each `tenants64` `Machine::run`, in seconds.
    pub machine_run_s: Vec<f64>,
}

impl Pass {
    /// Marks a unit failed. A machine-level key (`<machine>/machine`)
    /// fails every tenant of that machine.
    pub fn fail(&mut self, cell: &str, reason: &str) {
        eprintln!("simbench: check failed: {cell}: {reason}");
        match cell.strip_suffix("/machine") {
            Some(machine) => {
                let prefix = format!("{machine}/");
                let hit: Vec<String> = self
                    .units
                    .iter()
                    .filter(|u| u.starts_with(&prefix))
                    .cloned()
                    .collect();
                self.failed.extend(hit);
            }
            None => {
                self.failed.insert(cell.to_string());
            }
        }
    }

    /// Checks the ledger against `expected`, failing every differing unit
    /// and printing each differing field.
    pub fn check_against(&mut self, expected: &Ledger, what: &str) {
        let diff = self.ledger.diff(expected);
        for (key, got, want) in &diff {
            eprintln!(
                "simbench: {what}: {key}: got {} want {}",
                got.as_deref().unwrap_or("<missing>"),
                want.as_deref().unwrap_or("<missing>")
            );
        }
        for cell in self.ledger.differing_cells(expected) {
            self.fail(&cell, &format!("differs from {what}"));
        }
    }
}

/// Optional span recording for the traced pass.
#[derive(Clone, Copy)]
pub struct Trace<'r> {
    /// The recorder.
    pub rec: &'r Recorder,
    /// The pass's root span.
    pub root: u32,
}

fn traced<T>(trace: Option<Trace<'_>>, name: &'static str, f: impl FnOnce(Option<u32>) -> T) -> T {
    match trace {
        Some(t) => t.rec.span(name, Some(t.root), RUN_CELL, |id| f(Some(id))),
        None => f(None),
    }
}

/// Tenant label inside a machine: slot and benchmark.
pub fn tenant_key(slot: usize, name: &str) -> String {
    format!("t{slot:02}-{name}")
}

/// Runs one end-to-end pass.
pub fn run_pass(ctx: &Ctx, trace: Option<Trace<'_>>) -> Pass {
    match ctx.bench.spec(ctx.seed, ctx.threads) {
        Some(_) => matrix_pass(ctx, trace),
        None => tenants_pass(ctx, trace),
    }
}

fn matrix_pass(ctx: &Ctx, trace: Option<Trace<'_>>) -> Pass {
    let spec = || {
        ctx.bench
            .spec(ctx.seed, ctx.threads)
            .expect("a matrix workload")
    };
    let journal = ctx
        .out_dir
        .join(format!("journal-{}.ckpt", std::process::id()));
    let report_path = ctx
        .out_dir
        .join(format!("report-{}.json", std::process::id()));
    let options = RunOptions {
        checkpoint: ctx.bench.journals().then(|| journal.clone()),
        force_checkpoint: true,
        ..RunOptions::default()
    };
    let journal_bytes = AtomicU64::new(0);

    let t0 = Instant::now();
    let matrix: ExperimentMatrix = traced(trace, "experiment.build", |_| {
        spec().build().expect("the workload spec is valid")
    });
    let build_s = t0.elapsed().as_secs_f64();
    let report = traced(trace, "pool.run", |span| match (trace, span) {
        (Some(t), Some(parent)) => matrix.run_with_io(
            &options,
            &TimedIo {
                rec: t.rec,
                parent,
                bytes: &journal_bytes,
            },
        ),
        _ => matrix.run_with(&options),
    })
    .expect("the journal directory is writable");
    let json = traced(trace, "report.json", |_| report.to_json());
    traced(trace, "io.publish", |_| {
        write_atomic(&RealIo, &report_path, json.as_bytes())
    })
    .expect("the report directory is writable");
    let wall_s = t0.elapsed().as_secs_f64();

    let mut pass = Pass {
        wall_s,
        build_s,
        events: 0,
        units: report
            .cells()
            .iter()
            .map(|c| {
                format!(
                    "{}.{}/{}",
                    c.benchmark,
                    c.mechanism.cli_name(),
                    tenant_key(0, &c.benchmark)
                )
            })
            .collect(),
        failed: BTreeSet::new(),
        ledger: Ledger::default(),
        killed: 0,
        report_bytes: json.len() as u64,
        journal_bytes: journal_bytes.load(Ordering::Relaxed),
        machine_run_s: Vec::new(),
    };
    if std::fs::read(&report_path).ok().as_deref() != Some(json.as_bytes()) {
        for c in report.cells() {
            pass.fail(
                &format!("{}.{}/machine", c.benchmark, c.mechanism.cli_name()),
                "published report differs from the rendered one",
            );
        }
    }
    std::fs::remove_file(&report_path).ok();
    std::fs::remove_file(&journal).ok();
    for (cell, unit) in report.cells().iter().zip(pass.units.clone()) {
        let machine = format!("{}.{}", cell.benchmark, cell.mechanism.cli_name());
        match &cell.result {
            Err(failure) => pass.fail(&unit, &format!("cell failure: {failure}")),
            Ok(stats) => {
                record_machine(&mut pass, &machine, std::slice::from_ref(&unit), stats);
                if stats.killed_count() > 0 {
                    pass.fail(&unit, "a solo cell's tenant was killed");
                }
            }
        }
    }
    pass
}

/// Adds one finished machine to the pass: per-tenant and machine-wide
/// counters, events, kills, and the rollup consistency check.
fn record_machine(pass: &mut Pass, machine: &str, keys: &[String], stats: &MachineRunStats) {
    for (slot, key) in keys.iter().enumerate() {
        let s = stats.tenant(slot);
        ledger::full_tenant(&mut pass.ledger, key, s, stats.outcome(slot));
        pass.events += s.full_mem.accesses + s.os.mmaps + s.os.munmaps;
    }
    let cell = format!("{machine}/machine");
    ledger::os_stats(&mut pass.ledger, &cell, &stats.global.os);
    ledger::cache_hits(&mut pass.ledger, &cell, stats.global.mmu_cache_hits);
    pass.killed += stats.killed_count() as u64;
    let accesses: u64 = stats.per_tenant.iter().map(|s| s.full_mem.accesses).sum();
    let faults: u64 = stats.per_tenant.iter().map(|s| s.os.faults).sum();
    if accesses != stats.global.full_mem.accesses || faults != stats.global.os.faults {
        pass.fail(
            &cell,
            "per-tenant counters do not sum to the machine rollup",
        );
    }
}

/// A tenant that maps a fresh 2 MB region, writes it end to end, and
/// repeats until its memory cap stops it.
#[derive(Default)]
pub struct Hog {
    region: u32,
    step: u64,
}

impl Workload for Hog {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::named("hog")
    }

    fn next_event(&mut self) -> Option<Event> {
        const REGION_BYTES: u64 = 2 << 20;
        const WRITES_PER_REGION: u64 = 32;
        let phase = self.step % (WRITES_PER_REGION + 1);
        self.step += 1;
        if phase == 0 {
            return Some(Event::Mmap {
                region: self.region,
                bytes: REGION_BYTES,
            });
        }
        let event = Event::Access {
            region: self.region,
            offset: (phase - 1) * (REGION_BYTES / WRITES_PER_REGION),
            write: true,
        };
        if phase == WRITES_PER_REGION {
            self.region += 1;
        }
        Some(event)
    }
}

/// The `tenants64` tenants of one machine: `(key, benchmark, seed)` per
/// suite tenant in slot order, the hog last with no benchmark.
pub fn tenant_plan(seed: u64) -> Vec<(String, Option<&'static str>, u64)> {
    let names = suite_names();
    let seeds = tenant_seeds(seed, TENANTS as u32);
    let mut plan: Vec<_> = seeds
        .into_iter()
        .enumerate()
        .map(|(slot, s)| {
            let name = names[slot % names.len()];
            (tenant_key(slot, name), Some(name), s)
        })
        .collect();
    plan.push((tenant_key(TENANTS, "hog"), None, 0));
    plan
}

/// Machine configuration of one `tenants64` machine.
pub fn tenant_config(mech: Mechanism) -> MachineConfig {
    MachineConfig::for_mechanism(mech).with_memory(TENANT_MACHINE_BYTES)
}

/// The spec of one `tenants64` tenant.
pub fn tenant_spec(name: Option<&str>, seed: u64) -> TenantSpec {
    match name {
        Some(name) => TenantSpec::suite(name, SuiteScale::Test, seed),
        None => TenantSpec::workload(Hog::default()).memory_cap(HOG_CAP),
    }
}

fn build_tenant_machine(mech: Mechanism, seed: u64) -> Machine {
    MachineBuilder::new(tenant_config(mech))
        .tenants(
            tenant_plan(seed)
                .into_iter()
                .map(|(_, name, s)| tenant_spec(name, s)),
        )
        .reclaim_on_exit(true)
        .build()
        .expect("a machine with tenants is valid")
}

/// Host seconds per set-up in this process, one mean per timed batch: the
/// workload's `ExperimentSpec::build`, or `MachineBuilder::build` of both
/// `tenants64` machines.
pub fn sample_setup(ctx: &Ctx) -> Vec<f64> {
    match ctx.bench {
        Bench::Tenants64 => {
            sample_setups(|| TENANT_MECHS.map(|m| build_tenant_machine(m, ctx.seed)))
        }
        _ => sample_setups(|| {
            ctx.bench
                .spec(ctx.seed, ctx.threads)
                .and_then(|spec| spec.build().ok())
                .expect("the workload spec is valid")
        }),
    }
}

fn tenants_pass(ctx: &Ctx, trace: Option<Trace<'_>>) -> Pass {
    let build = || TENANT_MECHS.map(|m| build_tenant_machine(m, ctx.seed));
    let report_path = ctx
        .out_dir
        .join(format!("tenants-{}.txt", std::process::id()));
    let plan = tenant_plan(ctx.seed);
    let keys: Vec<String> = plan.iter().map(|(k, _, _)| k.clone()).collect();
    let units = TENANT_MECHS
        .iter()
        .flat_map(|m| keys.iter().map(move |k| format!("{}/{k}", m.cli_name())))
        .collect();
    let mut pass = Pass {
        wall_s: 0.0,
        build_s: 0.0,
        events: 0,
        units,
        failed: BTreeSet::new(),
        ledger: Ledger::default(),
        killed: 0,
        report_bytes: 0,
        journal_bytes: 0,
        machine_run_s: Vec::new(),
    };

    let t0 = Instant::now();
    let mut machines = traced(trace, "experiment.build", |_| build());
    pass.build_s = t0.elapsed().as_secs_f64();
    let mut runs = Vec::with_capacity(machines.len());
    for machine in &mut machines {
        let t = Instant::now();
        runs.push(traced(trace, "machine.run", |_| machine.run()));
        pass.machine_run_s.push(t.elapsed().as_secs_f64());
    }
    let text = traced(trace, "report.json", |_| {
        for ((mech, machine), stats) in TENANT_MECHS.iter().zip(&machines).zip(&runs) {
            let name = mech.cli_name();
            let tenant_keys: Vec<String> = keys.iter().map(|k| format!("{name}/{k}")).collect();
            record_machine(&mut pass, name, &tenant_keys, stats);
            ledger::buddy(
                &mut pass.ledger,
                &format!("{name}/machine"),
                machine.os().buddy(),
            );
        }
        pass.ledger.render()
    });
    traced(trace, "io.publish", |_| {
        write_atomic(&RealIo, &report_path, text.as_bytes())
    })
    .expect("the report directory is writable");
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.report_bytes = text.len() as u64;

    if std::fs::read(&report_path).ok().as_deref() != Some(text.as_bytes()) {
        for mech in TENANT_MECHS {
            pass.fail(
                &format!("{}/machine", mech.cli_name()),
                "published report differs from the rendered one",
            );
        }
    }
    std::fs::remove_file(&report_path).ok();
    for ((mech, machine), stats) in TENANT_MECHS.iter().zip(&machines).zip(&runs) {
        let name = mech.cli_name();
        if let Err(e) = machine.os().buddy().check_invariants() {
            pass.fail(&format!("{name}/machine"), &format!("buddy invariant: {e}"));
        }
        for (slot, key) in keys.iter().enumerate() {
            let outcome = stats.outcome(slot);
            let ok = if slot == TENANTS {
                matches!(
                    outcome,
                    TenantOutcome::Killed {
                        cause: TenantFaultCause::CapExceeded,
                        ..
                    }
                )
            } else {
                outcome == TenantOutcome::Completed
            };
            if !ok {
                pass.fail(
                    &format!("{name}/{key}"),
                    &format!("unexpected outcome {}", ledger::outcome_label(outcome)),
                );
            }
        }
    }
    pass
}

/// An [`ArtifactIo`] that records a span around every journal operation
/// and counts the bytes written.
struct TimedIo<'a> {
    rec: &'a Recorder,
    parent: u32,
    bytes: &'a AtomicU64,
}

const JOURNAL_SPAN: &str = "io.checkpoint";

static REAL_IO: RealIo = RealIo;

impl TimedIo<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        self.rec
            .span(JOURNAL_SPAN, Some(self.parent), RUN_CELL, |_| f())
    }
}

struct TimedSink<'a> {
    inner: Box<dyn ArtifactSink + 'a>,
    io: &'a TimedIo<'a>,
}

impl ArtifactSink for TimedSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.io.timed(|| self.inner.write(buf))?;
        self.io.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.io.timed(|| self.inner.sync_data())
    }
}

impl<'r> ArtifactIo for TimedIo<'r> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn ArtifactSink + '_>> {
        let inner = self.timed(|| REAL_IO.create(path))?;
        Ok(Box::new(TimedSink { inner, io: self }))
    }

    fn open_append(
        &self,
        path: &Path,
        truncate_to: Option<u64>,
    ) -> io::Result<Box<dyn ArtifactSink + '_>> {
        let inner = self.timed(|| REAL_IO.open_append(path, truncate_to))?;
        Ok(Box::new(TimedSink { inner, io: self }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| REAL_IO.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(|| REAL_IO.sync_dir(dir))
    }
}
