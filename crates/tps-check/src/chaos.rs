//! The artifact property: deterministic chaos for the experiment engine's
//! artifact I/O.
//!
//! Where [`crate::campaign`] stresses the simulated OS and [`crate::shadow`]
//! the simulated hardware, this module stresses the one layer whose failure
//! would silently invalidate every reproduced figure: the bytes the
//! experiment engine writes to disk. Each seeded schedule drives a whole
//! in-process matrix run through [`tps_sim::FaultyIo`] and then checks the
//! crash-safety contracts of the checkpoint journal and the report
//! publication path:
//!
//! * **Kill schedules** cut the run's write stream at a randomized byte
//!   offset. The journal left behind must either resume — via the real
//!   filesystem — to a report byte-identical to an uninterrupted run, or
//!   (when the kill landed inside the header) be refused outright. A
//!   report published through the dying I/O layer must be all-or-nothing
//!   at its final path: absent, or byte-identical — never partial.
//! * **Corruption schedules** flip one random byte of a complete journal.
//!   Resume must never produce a silently wrong report: it either still
//!   matches the uninterrupted run (the flip was harmless — e.g. it tore
//!   the tail, which legally re-runs the victim cell) or it is refused as
//!   corruption; salvage mode must then recover the full correct report
//!   whenever the header survived.
//! * **I/O-storm schedules** run under intermittent injected `io::Error`s
//!   or a disk-full budget. A run that reports success must have produced
//!   the exact reference report, and whatever journal the storm left
//!   behind must be salvageable as long as its header line is complete.
//!
//! Every schedule is a pure function of `(campaign seed, schedule index)`,
//! so a failure replays in isolation with [`Campaign::replay`].

use std::fmt;
use std::path::{Path, PathBuf};

use tps_core::rng::SplitMix64;
use tps_core::TpsError;
use tps_sim::{
    write_atomic, ExperimentMatrix, ExperimentReport, ExperimentSpec, FaultyIo, FaultyIoConfig,
    Mechanism, RunOptions,
};
use tps_wl::SuiteScale;

use crate::runner::{Campaign, Property};

/// What the chaos schedules exercised.
#[derive(Clone, Debug, Default)]
pub struct ChaosTally {
    /// Kill schedules (randomized byte-offset process death).
    pub kills: u64,
    /// Corruption schedules (one random byte flipped in a journal).
    pub corruptions: u64,
    /// I/O-storm schedules (intermittent errors / disk-full).
    pub io_storms: u64,
    /// Killed runs whose journal resumed to a byte-identical report.
    pub resumed: u64,
    /// Corruptions refused by the CRC/framing/sequence checks.
    pub detected: u64,
    /// Corruptions that were provably harmless (report still identical).
    pub harmless: u64,
    /// Damaged journals fully recovered by salvage mode.
    pub salvaged: u64,
}

impl fmt::Display for ChaosTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} kills, {} corruptions, {} storms): \
             {} resumed, {} detected, {} harmless, {} salvaged",
            self.kills,
            self.corruptions,
            self.io_storms,
            self.resumed,
            self.detected,
            self.harmless,
            self.salvaged
        )
    }
}

/// The shared reference state every schedule compares against.
struct Reference {
    matrix: ExperimentMatrix,
    json: String,
    cells: Vec<String>,
    journal: Vec<u8>,
    header_len: usize,
}

/// The fixed 2-cell matrix (gups × {THP, TPS}, test scale, one worker)
/// every schedule runs. Small enough that a campaign is a few seconds,
/// real enough that the journal carries full `RunStats` entries.
fn chaos_matrix() -> ExperimentMatrix {
    ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(11)
        .threads(1)
        .build()
        .expect("chaos spec is static and valid")
}

impl Reference {
    /// Runs the matrix from scratch, journaling to `ckpt` through `io`.
    fn run(&self, ckpt: &Path, io: &FaultyIo) -> Result<ExperimentReport, TpsError> {
        let options = RunOptions {
            checkpoint: Some(ckpt.to_path_buf()),
            ..RunOptions::default()
        };
        self.matrix.run_with_io(&options, io)
    }

    /// Resumes the matrix from the journal at `ckpt` over the real
    /// filesystem; `salvage` drops damaged entries instead of refusing.
    fn resume(&self, ckpt: &Path, salvage: bool) -> Result<ExperimentReport, TpsError> {
        self.matrix.run_with(&RunOptions {
            resume: Some(ckpt.to_path_buf()),
            salvage,
            ..RunOptions::default()
        })
    }
}

fn cell_docs(report: &ExperimentReport) -> Vec<String> {
    report.cells().iter().map(|c| c.to_json()).collect()
}

/// Runs the uninterrupted reference once: its report bytes and its
/// complete journal are the ground truth of every schedule.
fn build_reference(dir: &Path) -> Result<Reference, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let matrix = chaos_matrix();
    let path = dir.join("reference.ckpt");
    std::fs::remove_file(&path).ok();
    let report = matrix
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            ..RunOptions::default()
        })
        .map_err(|e| format!("reference run failed: {e}"))?;
    let journal =
        std::fs::read(&path).map_err(|e| format!("cannot read reference journal: {e}"))?;
    let header_len = journal
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("reference journal has no header line")?
        + 1;
    Ok(Reference {
        json: report.to_json(),
        cells: cell_docs(&report),
        matrix,
        journal,
        header_len,
    })
}

/// The default campaign: 240 schedules.
pub const CAMPAIGN: Campaign = Campaign {
    schedules: 240,
    seed: 0x7e57_c4a0_0000_0001,
};

/// The artifact contracts, checked by kill, corruption and I/O-storm
/// schedules (one third each, by schedule index) against one
/// uninterrupted reference run.
pub struct ChaosProperty {
    reference: Reference,
    dir: PathBuf,
}

impl ChaosProperty {
    /// Builds the reference run in `dir` (scratch space; created if
    /// missing), where every schedule will leave its wreckage.
    ///
    /// # Errors
    ///
    /// Why the reference run could not be built.
    pub fn new(dir: &Path) -> Result<Self, String> {
        Ok(ChaosProperty {
            reference: build_reference(dir)?,
            dir: dir.to_path_buf(),
        })
    }
}

impl Property for ChaosProperty {
    type Tally = ChaosTally;

    fn check(&self, index: u64, seed: u64, tally: &mut ChaosTally) -> Result<(), String> {
        let mut rng = SplitMix64::new(seed);
        let ckpt = self.dir.join(format!("chaos-{index}.ckpt"));
        let json = self.dir.join(format!("chaos-{index}.json"));
        for p in [&ckpt, &json] {
            std::fs::remove_file(p).ok();
        }
        let reference = &self.reference;
        let result = match index % 3 {
            0 => {
                tally.kills += 1;
                kill_schedule(reference, &mut rng, &ckpt, &json, tally)
            }
            1 => {
                tally.corruptions += 1;
                corruption_schedule(reference, &mut rng, &ckpt, tally)
            }
            _ => {
                tally.io_storms += 1;
                storm_schedule(reference, &mut rng, &ckpt, tally)
            }
        };
        if result.is_ok() {
            // Keep the wreckage of failing schedules around for inspection.
            for p in [&ckpt, &json] {
                std::fs::remove_file(p).ok();
            }
            let tmp = self.dir.join(format!("chaos-{index}.json.tmp"));
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

/// Kill the write stream at a random byte offset; the survivors must
/// resume byte-identically and the report path must never hold a prefix.
fn kill_schedule(
    reference: &Reference,
    rng: &mut SplitMix64,
    ckpt: &Path,
    json: &Path,
    tally: &mut ChaosTally,
) -> Result<(), String> {
    let kill_at = rng.next_u64() % (reference.journal.len() as u64 + 8);
    let io = FaultyIo::new(FaultyIoConfig {
        seed: rng.next_u64(),
        kill_at: Some(kill_at),
        ..FaultyIoConfig::default()
    });
    let report = reference
        .run(ckpt, &io)
        .map_err(|e| format!("killed run errored instead of dying silently: {e}"))?;
    if report.to_json() != reference.json {
        return Err("in-memory report of a killed run diverged".to_string());
    }
    // Publish the report through the same dying layer: the final path
    // must show all of it or none of it.
    let doc = report.to_json() + "\n";
    write_atomic(&io, json, doc.as_bytes())
        .map_err(|e| format!("atomic publish errored under kill: {e}"))?;
    match std::fs::read(json) {
        Err(_) => {} // never published: acceptable wreckage
        Ok(bytes) if bytes == doc.as_bytes() => {}
        Ok(bytes) => {
            return Err(format!(
                "partial report visible at the final path ({} of {} bytes)",
                bytes.len(),
                doc.len()
            ))
        }
    }
    // Resume from the wreckage over the real filesystem.
    let journal_bytes = std::fs::read(ckpt).unwrap_or_default();
    let header_complete = journal_bytes.contains(&b'\n');
    match reference.resume(ckpt, false) {
        Ok(resumed) => {
            if resumed.to_json() != reference.json {
                return Err(format!(
                    "resume after kill at byte {kill_at} is not byte-identical"
                ));
            }
            tally.resumed += 1;
        }
        // Killed inside the header line: refusal is the contract.
        Err(_) if !header_complete => {}
        Err(e) => {
            return Err(format!(
                "salvageable journal (kill at byte {kill_at}) refused: {e}"
            ))
        }
    }
    Ok(())
}

/// Flip one random byte of the complete reference journal; resume must
/// detect it or provably not need to, and salvage must recover whenever
/// the header survived.
fn corruption_schedule(
    reference: &Reference,
    rng: &mut SplitMix64,
    ckpt: &Path,
    tally: &mut ChaosTally,
) -> Result<(), String> {
    let mut corrupted = reference.journal.clone();
    let pos = (rng.next_u64() % corrupted.len() as u64) as usize;
    let xor = (rng.next_u64() % 255 + 1) as u8;
    corrupted[pos] ^= xor;
    std::fs::write(ckpt, &corrupted).map_err(|e| format!("cannot plant corruption: {e}"))?;

    match reference.resume(ckpt, false) {
        Ok(report) => {
            // Resume accepted the damaged journal: only legal when the
            // output is still exactly right (e.g. the flip tore the tail
            // and the victim cell was recomputed).
            if report.to_json() != reference.json {
                return Err(format!(
                    "SILENTLY WRONG report from flipping byte {pos} by {xor:#04x}"
                ));
            }
            tally.harmless += 1;
        }
        Err(e) => {
            // The resume mutated the journal (tail truncation cannot have
            // happened on an Err, but be safe): re-plant the corruption
            // for the salvage pass.
            std::fs::write(ckpt, &corrupted)
                .map_err(|e| format!("cannot re-plant corruption: {e}"))?;
            let header_damaged = pos < reference.header_len;
            let utf8_broken = std::str::from_utf8(&corrupted).is_err();
            match reference.resume(ckpt, true) {
                Ok(salvaged) => {
                    if cell_docs(&salvaged) != reference.cells {
                        return Err(format!("salvage of byte {pos} flip produced wrong cells"));
                    }
                    tally.salvaged += 1;
                }
                // Salvage cannot invent a header or read non-UTF-8;
                // refusing is correct (and still a detection).
                Err(_) if header_damaged || utf8_broken => {}
                Err(salvage_err) => {
                    return Err(format!(
                        "salvage refused a recoverable journal (byte {pos}, {e}): {salvage_err}"
                    ))
                }
            }
            tally.detected += 1;
        }
    }
    Ok(())
}

/// Run under intermittent injected errors or a disk-full budget: success
/// implies the exact reference report, and whatever journal survives must
/// salvage cleanly as long as its header line is complete.
fn storm_schedule(
    reference: &Reference,
    rng: &mut SplitMix64,
    ckpt: &Path,
    tally: &mut ChaosTally,
) -> Result<(), String> {
    let disk_full = rng.next_u64().is_multiple_of(2);
    let config = if disk_full {
        FaultyIoConfig {
            seed: rng.next_u64(),
            disk_full_at: Some(rng.next_u64() % (reference.journal.len() as u64 + 1)),
            ..FaultyIoConfig::default()
        }
    } else {
        FaultyIoConfig {
            seed: rng.next_u64(),
            error_rate: 0.2,
            short_write_rate: 0.3,
            ..FaultyIoConfig::default()
        }
    };
    let io = FaultyIo::new(config);
    // An error (the storm broke journal creation or the final sync) is
    // an accepted outcome; a wrong report is not.
    if let Ok(report) = reference.run(ckpt, &io) {
        if report.to_json() != reference.json {
            return Err("storm run reported success with a wrong report".to_string());
        }
    }
    // Whatever landed on disk must salvage whenever its header survived.
    let bytes = std::fs::read(ckpt).unwrap_or_default();
    if !bytes.contains(&b'\n') {
        return Ok(()); // no complete header: nothing to recover
    }
    match reference.resume(ckpt, true) {
        Ok(salvaged) => {
            if cell_docs(&salvaged) != reference.cells {
                return Err("salvage after storm produced wrong cells".to_string());
            }
            tally.salvaged += 1;
            Ok(())
        }
        Err(e) => Err(format!("storm journal with complete header refused: {e}")),
    }
}

/// Scratch directory helper shared by the test and the verify gate:
/// a campaign-specific subdirectory of the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tps-chaos-{tag}"))
}
