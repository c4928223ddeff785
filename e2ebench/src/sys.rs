//! Process-level helpers: the benchmark clock, peak RSS, and the scratch
//! and trace directories inside the benchmark's own folder.

use crate::ledger::Ledger;
use crate::report::Report;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the benchmark started, on the monotonic clock every
/// span and every decorator shares.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Resets the kernel's high-water RSS mark (`VmHWM`) to the current RSS,
/// so that [`report_peak_rss`] covers only what runs after this call.
/// Where the kernel refuses, the mark keeps covering set-up too; the
/// table says so.
pub fn reset_peak_rss(report: &mut Report) {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the RSS high-water mark: {e}");
        report.info("peak_rss_includes_setup", 1.0, "count", 1);
    }
}

/// Reports `peak_rss_mb`: the process's high-water RSS in MiB since the
/// last reset.
pub fn report_peak_rss(report: &mut Report) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kb {
        Some(kb) => report.set("peak_rss_mb", kb / 1024.0, 1),
        None => report.problem("cannot read VmHWM from /proc/self/status"),
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory under the benchmark's folder, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = bench_dir()
            .join("work")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Also the parent, unless another run's directory still lives there.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Writes a traced run's spans to `out/<workload>-seed<N>.trace.json`.
pub fn write_trace(ledger: &Ledger, workload: &str, seed: u64, report: &mut Report) {
    let path = bench_dir()
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"));
    match ledger.write(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => report.problem(format!("cannot write the trace: {e}")),
    }
}
