//! The golden report corpus: committed `tps_run` reports that every
//! later commit must reproduce byte for byte.
//!
//! The determinism gates in `scripts/verify.sh` compare two runs of the
//! same build, so a change that shifts every run alike passes them. This
//! corpus pins results across commits. An intended drift is regenerated
//! with `scripts/regen-golden.sh` (which sets `TPS_REGEN_GOLDEN=1` for
//! this test) and committed with a CHANGES.md entry naming each changed
//! field.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One golden report: its file under `tests/golden/` and the `tps_run`
/// arguments that produce it.
struct Case {
    file: &'static str,
    args: &'static str,
}

/// Eight tenants per cell under every mechanism, with injected OS and
/// hardware faults and retries: per-tenant `hw_faults` and OS counters.
const FAULTED_TENANTS: Case = Case {
    file: "gups-all-tenants8-faults.json",
    args: "--bench gups --all --scale test --seed 7 --tenants 8 \
           --fault-rate 0.02 --fault-seed 7 --retries 2",
};

/// Eight tenants with one capped at 4 MB under the OOM killer: the
/// kill outcomes and the reclaim charged to the victims.
const CAPPED_TENANTS: Case = Case {
    file: "gups-tps-thp-tenants8-capped.json",
    args: "--bench gups --mech tps --mech thp --scale test --seed 7 --tenants 8 \
           --tenant-cap 3:4194304 --on-oom kill-victim",
};

fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Runs `tps_run` for `case` and returns the report bytes.
fn report(case: &Case) -> Vec<u8> {
    let out = std::env::temp_dir().join(format!("tps-golden-{}-{}", std::process::id(), case.file));
    let run = Command::new(env!("CARGO_BIN_EXE_tps_run"))
        .args(case.args.split_whitespace())
        .arg("--json")
        .arg(&out)
        .output()
        .expect("tps_run starts");
    assert_eq!(
        run.status.code(),
        Some(0),
        "tps_run {}: {}",
        case.args,
        String::from_utf8_lossy(&run.stderr)
    );
    let bytes = std::fs::read(&out).expect("tps_run wrote the report");
    std::fs::remove_file(&out).ok();
    bytes
}

fn check(case: &Case) {
    let fresh = report(case);
    let path = golden_path(case.file);
    if std::env::var_os("TPS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read(&path).expect("golden file is committed");
    if fresh != golden {
        let line = fresh
            .split(|&b| b == b'\n')
            .zip(golden.split(|&b| b == b'\n'))
            .position(|(a, b)| a != b)
            .map_or(0, |i| i + 1);
        panic!(
            "{} drifted from the golden corpus (first differing line: {line}); \
             regenerate with scripts/regen-golden.sh only for an intended change",
            case.file
        );
    }
}

#[test]
fn faulted_tenant_matrix_matches_golden() {
    check(&FAULTED_TENANTS);
}

#[test]
fn capped_tenant_matrix_matches_golden() {
    check(&CAPPED_TENANTS);
}
