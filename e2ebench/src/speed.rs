//! The machine-speed probe. On a shared host the floor speed of the same
//! code drifts by 10–30% over minutes, which no statistic over one run's
//! samples removes. The probe is a fixed amount of benchmark-owned work of
//! both kinds the workloads do — arithmetic on every CPU, and small
//! messages over localhost TCP between two threads — taken between the
//! samples of a run. A gated time is scaled by `PROBE_NOMINAL_S` over the
//! run's median probe, so it reads as seconds on a machine where the probe
//! takes its nominal time; a change to the library does not touch the
//! probe.

use crate::report::Report;
use crate::stats::median;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The probe's usual wall time on the 2-CPU x86-64 VM the benchmark was
/// tuned on.
const PROBE_NOMINAL_S: f64 = 0.1;
/// The arithmetic part: rows of 16 values (256 KiB), swept this often.
const ROWS: usize = 2048;
const SWEEPS: usize = 160;
/// The messaging part: 64-byte round trips.
const ROUND_TRIPS: usize = 2000;

/// Squared distances of every row to 8 fixed centers, the smallest per
/// row, summed: the kind of work the assign kernel does.
fn sweep(rows: &[f64]) -> f64 {
    let mut total = 0.0;
    for row in rows.chunks_exact(16) {
        let mut best = f64::INFINITY;
        for c in 0..8 {
            let center = c as f64 * 0.125;
            let d: f64 = row.iter().map(|x| (x - center) * (x - center)).sum();
            best = best.min(d);
        }
        total += best;
    }
    total
}

/// Round trips of a 64-byte message between this thread and an echo
/// thread over a fresh localhost TCP connection.
fn ping_pong() -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(|| -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = [0u8; 64];
            for _ in 0..ROUND_TRIPS {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut buf = [7u8; 64];
        for _ in 0..ROUND_TRIPS {
            conn.write_all(&buf)?;
            conn.read_exact(&mut buf)?;
        }
        echo.join().expect("the echo thread panicked")
    })
}

pub struct Speed {
    rows: Vec<f64>,
    threads: usize,
    probes: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        let rows = (0..ROWS * 16).map(|i| (i % 97) as f64 / 97.0).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Speed {
            rows,
            threads,
            probes: Vec::new(),
        }
    }

    /// Times one probe and keeps it.
    pub fn probe(&mut self) -> Result<(), String> {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.threads {
                s.spawn(|| {
                    for _ in 0..SWEEPS {
                        black_box(sweep(black_box(&self.rows)));
                    }
                });
            }
        });
        ping_pong().map_err(|e| format!("the speed probe failed: {e}"))?;
        self.probes.push(t.elapsed().as_secs_f64());
        Ok(())
    }

    /// Scales `seconds` measured during this run to the nominal speed, and
    /// prints the probes' median beside the metrics.
    pub fn scale(&self, seconds: f64, report: &mut Report) -> f64 {
        let probe = median(&self.probes);
        report.info("speed.probe_s", probe, "s", self.probes.len());
        seconds * PROBE_NOMINAL_S / probe
    }
}
