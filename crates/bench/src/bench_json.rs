//! Shared writer for the workspace's machine-readable bench artifacts.
//!
//! Multiple bench binaries contribute to one JSON file (the kernel
//! trajectory `BENCH_kernels.json` is fed by both `benches/distance.rs`
//! and `benches/assign_kernel.rs`), so the writer **merges by record id**:
//! it keeps existing records whose id is not being re-reported, replaces
//! those that are, and appends the rest — successive `cargo bench` runs
//! converge on one complete snapshot instead of clobbering each other.
//!
//! The format is deliberately rigid (one record per line, fixed fields)
//! so it can be parsed back without a JSON dependency.
//!
//! A quick run (`KMEANS_BENCH_QUICK=1`, the CI smoke) measures a smaller
//! grid than the committed artifact holds, so it [`print_records`]
//! instead: its rows never land next to the full-size ones.

use std::io::Write;
use std::path::Path;

/// One row of a bench artifact: its merge key and its line.
pub trait Record {
    /// The record id, unique within its artifact.
    fn id(&self) -> &str;
    /// The record as one JSON object on one line (no trailing comma).
    fn to_line(&self) -> String;
}

/// One kernel-bench record: a benchmark identity, its configuration axes,
/// the median wall time, and the kernel work counters.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRecord {
    /// Unique record id (`group/bench/param`); the merge key.
    pub id: String,
    /// Kernel / code path being measured (e.g. `"assign_kernel"`,
    /// `"scalar_nearest"`, `"sq_dist"`).
    pub kernel: String,
    /// Points in the workload (1 for pair-level micro-benches).
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Centers (0 where not applicable).
    pub k: usize,
    /// Center-tile size (0 for untiled scalar paths).
    pub tile: usize,
    /// Median wall time in nanoseconds.
    pub wall_ns: u128,
    /// Point–center distance evaluations actually performed per run.
    pub distance_computations: u64,
    /// Candidates skipped by the norm lower bound per run.
    pub pruned: u64,
}

impl Record for KernelRecord {
    fn id(&self) -> &str {
        &self.id
    }

    fn to_line(&self) -> String {
        format!(
            "  {{\"id\": \"{}\", \"kernel\": \"{}\", \"n\": {}, \"d\": {}, \"k\": {}, \
             \"tile\": {}, \"wall_ns\": {}, \"distance_computations\": {}, \"pruned\": {}}}",
            escape_free(&self.id),
            escape_free(&self.kernel),
            self.n,
            self.d,
            self.k,
            self.tile,
            self.wall_ns,
            self.distance_computations,
            self.pruned,
        )
    }
}

fn escape_free(s: &str) -> &str {
    debug_assert!(
        !s.contains('"') && !s.contains('\\'),
        "bench ids stay in the JSON-safe subset"
    );
    s
}

/// One driver-bench record: a benchmark identity, the algorithm and the
/// execution backend it ran on, the configuration axes, the median wall
/// time, and the round/wire accounting (0 where the backend has no
/// wire). Written to `BENCH_driver.json` by `benches/driver.rs`.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverRecord {
    /// Unique record id (`group/method/backend`); the merge key.
    pub id: String,
    /// Algorithm pipeline being driven (e.g. `"kmeans-par+lloyd"`).
    pub method: String,
    /// Execution backend (`"in-memory"`, `"chunked"`,
    /// `"distributed-w2"`, …).
    pub backend: String,
    /// Points in the workload.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Centers.
    pub k: usize,
    /// Median wall time in nanoseconds.
    pub wall_ns: u128,
    /// Frame bytes moved, coordinator↔workers (0 off the wire).
    pub bytes_on_wire: u64,
    /// Full data passes driven (0 where the backend does not count them).
    pub data_passes: u64,
    /// Blocking coordinator↔worker wire round trips (session control —
    /// Hello/Plan/Shutdown — excluded; a fused compound round counts
    /// once; 0 off the wire).
    pub round_trips: u64,
}

impl Record for DriverRecord {
    fn id(&self) -> &str {
        &self.id
    }

    fn to_line(&self) -> String {
        format!(
            "  {{\"id\": \"{}\", \"method\": \"{}\", \"backend\": \"{}\", \"n\": {}, \"d\": {}, \
             \"k\": {}, \"wall_ns\": {}, \"bytes_on_wire\": {}, \"data_passes\": {}, \
             \"round_trips\": {}}}",
            escape_free(&self.id),
            escape_free(&self.method),
            escape_free(&self.backend),
            self.n,
            self.d,
            self.k,
            self.wall_ns,
            self.bytes_on_wire,
            self.data_passes,
            self.round_trips,
        )
    }
}

/// One serving-bench record: a load-generator configuration (request
/// batch size × concurrent clients), its throughput, and the tail
/// latencies. Written to `BENCH_serve.json` by `benches/serve.rs`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRecord {
    /// Unique record id (`serve/<transport>/b<batch>_c<clients>`); the
    /// merge key.
    pub id: String,
    /// Transport the load ran over (`"tcp"`).
    pub transport: String,
    /// Points per predict request.
    pub batch: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests answered in the measured window.
    pub requests: u64,
    /// Dimensionality of the served model.
    pub d: usize,
    /// Centers in the served model.
    pub k: usize,
    /// Median request latency in nanoseconds.
    pub p50_ns: u128,
    /// 99th-percentile request latency in nanoseconds.
    pub p99_ns: u128,
    /// Requests per second over the measured window.
    pub qps: u64,
    /// Points assigned per second over the measured window.
    pub points_per_sec: u64,
    /// Requests shed by admission control during the window (0 for an
    /// un-overloaded configuration). Latency quantiles cover *accepted*
    /// requests only — shedding is what keeps them bounded.
    pub shed_requests: u64,
    /// Shed fraction of the offered load (`shed / (shed + answered)`).
    pub shed_rate: f64,
}

impl Record for ServeRecord {
    fn id(&self) -> &str {
        &self.id
    }

    fn to_line(&self) -> String {
        format!(
            "  {{\"id\": \"{}\", \"transport\": \"{}\", \"batch\": {}, \"clients\": {}, \
             \"requests\": {}, \"d\": {}, \"k\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"qps\": {}, \"points_per_sec\": {}, \"shed_requests\": {}, \"shed_rate\": {:.4}}}",
            escape_free(&self.id),
            escape_free(&self.transport),
            self.batch,
            self.clients,
            self.requests,
            self.d,
            self.k,
            self.p50_ns,
            self.p99_ns,
            self.qps,
            self.points_per_sec,
            self.shed_requests,
            self.shed_rate,
        )
    }
}

/// Extracts the `"id"` value from one record line written by this module.
fn line_id(line: &str) -> Option<&str> {
    let rest = line.split("\"id\": \"").nth(1)?;
    rest.split('"').next()
}

/// Writes `records` into the JSON array at `path`, replacing any existing
/// records with matching ids and keeping the rest (see module docs).
///
/// # Panics
///
/// Panics on I/O errors — bench harnesses have no error channel and a
/// silently missing artifact is worse than an aborted bench run.
pub fn write_merged<R: Record>(path: &Path, records: &[R]) {
    let mut lines: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let Some(id) = line_id(line) else { continue };
            if records.iter().all(|r| r.id() != id) {
                lines.push(line.trim_end_matches(',').to_string());
            }
        }
    }
    lines.extend(records.iter().map(Record::to_line));
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    let mut file = std::fs::File::create(path).expect("create bench JSON artifact");
    file.write_all(out.as_bytes())
        .expect("write bench JSON artifact");
    println!(
        "wrote {} records ({} new/updated) -> {}",
        lines.len(),
        records.len(),
        path.display()
    );
}

/// Prints `records` in the artifact's line format and writes no file —
/// what a quick run does instead of [`write_merged`] (see module docs).
pub fn print_records<R: Record>(records: &[R]) {
    for record in records {
        println!("{}", record.to_line().trim_start());
    }
    println!(
        "quick run: {} records printed, no artifact written",
        records.len()
    );
}

/// Reads back the `"wall_ns"` value of the record with `id` from a bench
/// artifact written by this module, if present — the hook the driver
/// bench's quick mode uses to compare against the committed pre-refactor
/// trajectory.
pub fn read_wall_ns(path: &Path, fragment: &str) -> Option<u128> {
    let body = std::fs::read_to_string(path).ok()?;
    for line in body.lines() {
        if !line.contains(fragment) {
            continue;
        }
        let rest = line.split("\"wall_ns\": ").nth(1)?;
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        return digits.parse().ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, wall: u128) -> KernelRecord {
        KernelRecord {
            id: id.into(),
            kernel: "assign_kernel".into(),
            n: 100,
            d: 16,
            k: 64,
            tile: 256,
            wall_ns: wall,
            distance_computations: 123,
            pruned: 45,
        }
    }

    #[test]
    fn merge_replaces_matching_ids_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("bench_json_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.json");
        write_merged(&path, &[record("a/x", 10), record("a/y", 20)]);
        write_merged(&path, &[record("a/y", 99), record("b/z", 30)]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"id\": \"a/x\""), "{body}");
        assert!(body.contains("\"wall_ns\": 99"), "replaced: {body}");
        assert!(!body.contains("\"wall_ns\": 20"), "stale kept: {body}");
        assert!(body.contains("\"id\": \"b/z\""), "{body}");
        assert_eq!(body.matches("\"id\"").count(), 3);
        // The artifact stays parseable line by line.
        assert!(body.starts_with("[\n") && body.ends_with("]\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
