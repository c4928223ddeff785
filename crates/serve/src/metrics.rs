//! The live metrics endpoint behind `skm serve --metrics-listen`: a
//! hand-rolled plain-HTTP server (std `TcpListener`, no framework) that
//! answers `GET /metrics` with the engine's counters and latency
//! summaries in the Prometheus text exposition format — readable by a
//! plain `curl` mid-load, scrapeable by any Prometheus-compatible
//! collector.
//!
//! The endpoint is read-only and isolated from the serving port: it
//! shares nothing with the `SKS` conversation but the [`ServeEngine`]
//! handle, so a slow or misbehaving scraper can never stall a predict
//! batch. One request per connection (`Connection: close`), bounded
//! request reads, and a polling accept loop that exits when the engine
//! shuts down.

use crate::engine::ServeEngine;
use crate::protocol::ServeStats;
use kmeans_obs::PromText;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Longest request head (request line + headers) the endpoint reads
/// before answering; anything longer is answered `431` and dropped.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Renders a [`ServeStats`] snapshot as a Prometheus text-exposition
/// document (format 0.0.4) — the body `GET /metrics` serves.
pub fn render_metrics(stats: &ServeStats) -> String {
    let mut p = PromText::new();
    p.gauge(
        "skm_serve_model_revision",
        "Revision of the currently installed model.",
        stats.revision as f64,
    );
    p.counter(
        "skm_serve_requests_total",
        "Predict/cost requests answered.",
        stats.requests,
    );
    p.counter(
        "skm_serve_points_total",
        "Points assigned across all requests.",
        stats.points,
    );
    p.counter(
        "skm_serve_batches_total",
        "Kernel batches executed.",
        stats.batches,
    );
    p.counter(
        "skm_serve_swaps_total",
        "Model hot-swaps performed.",
        stats.swaps,
    );
    p.counter(
        "skm_serve_distance_computations_total",
        "Kernel distance evaluations spent serving.",
        stats.distance_computations,
    );
    p.counter(
        "skm_serve_pruned_by_norm_bound_total",
        "Kernel candidates pruned by the norm/coordinate bounds.",
        stats.pruned_by_norm_bound,
    );
    p.gauge(
        "skm_serve_max_batch_points",
        "Largest kernel batch so far, in points.",
        stats.max_batch_points as f64,
    );
    p.gauge(
        "skm_serve_revision_requests",
        "Requests answered under the current revision.",
        stats.revision_requests as f64,
    );
    p.gauge(
        "skm_serve_revision_points",
        "Points assigned under the current revision.",
        stats.revision_points as f64,
    );
    p.gauge(
        "skm_serve_revision_batches",
        "Kernel batches executed under the current revision.",
        stats.revision_batches as f64,
    );
    p.summary_seconds(
        "skm_serve_request_latency_seconds",
        "Request latency, submit to reply (includes queue wait).",
        &stats.request_latency,
    );
    p.summary_seconds(
        "skm_serve_batch_latency_seconds",
        "Kernel batch sweep latency.",
        &stats.batch_latency,
    );
    p.counter(
        "skm_serve_shed_requests_total",
        "Requests rejected by admission control (queue full).",
        stats.shed_requests,
    );
    p.counter(
        "skm_serve_shed_points_total",
        "Points carried by shed requests (never touched the kernel).",
        stats.shed_points,
    );
    p.counter(
        "skm_serve_deadline_exceeded_total",
        "Requests whose deadline budget expired before batching.",
        stats.deadline_exceeded,
    );
    p.counter(
        "skm_serve_drain_rejected_total",
        "Requests rejected because the server was draining.",
        stats.drain_rejected,
    );
    p.gauge(
        "skm_serve_queued_points",
        "Points currently admitted but not yet answered.",
        stats.queued_points as f64,
    );
    p.gauge(
        "skm_serve_queue_cap_points",
        "The admission cap, in points.",
        stats.queue_cap as f64,
    );
    p.gauge(
        "skm_serve_draining",
        "1 while the server is draining (readiness down), else 0.",
        if stats.draining { 1.0 } else { 0.0 },
    );
    p.render()
}

/// The metrics endpoint: binds separately from the serve port, then
/// [`MetricsServer::serve`] answers scrapes until the engine shuts
/// down. Bind-then-serve split so callers learn the bound address (and
/// can print it) before blocking.
///
/// Besides `GET /metrics`, the endpoint answers the orchestration
/// probes: `GET /healthz` is liveness (200 while the process serves
/// scrapes, drain included) and `GET /readyz` is readiness (200 while
/// accepting new work, `503` once a drain begins — the signal a load
/// balancer uses to stop routing to a replica being rolled).
pub struct MetricsServer {
    listener: TcpListener,
    io_timeout: Duration,
}

/// Default bound on a scrape connection's socket reads/writes.
pub const DEFAULT_SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(5);

impl MetricsServer {
    /// Binds the endpoint (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// with the default scrape I/O timeout.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Self::bind_with_timeout(addr, DEFAULT_SCRAPE_IO_TIMEOUT)
    }

    /// [`MetricsServer::bind`] with an explicit bound on each scrape
    /// connection's socket reads/writes.
    pub fn bind_with_timeout(addr: &str, io_timeout: Duration) -> std::io::Result<Self> {
        Ok(MetricsServer {
            listener: TcpListener::bind(addr)?,
            io_timeout,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves scrapes until `engine` requests shutdown. The accept loop
    /// polls (non-blocking accept + short sleep) so it notices the
    /// shutdown flag without needing a wake-up connection; each accepted
    /// connection gets one bounded-read request and one response.
    pub fn serve(self, engine: ServeEngine) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if engine.shutdown_requested() {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Scrape failures (slow peer, disconnect) only drop
                    // this one response; the endpoint carries on.
                    let _ = handle_scrape(stream, &engine, self.io_timeout);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Spawns [`MetricsServer::serve`] on a background thread.
    pub fn spawn(self, engine: ServeEngine) -> std::thread::JoinHandle<std::io::Result<()>> {
        std::thread::spawn(move || self.serve(engine))
    }
}

fn handle_scrape(
    mut stream: TcpStream,
    engine: &ServeEngine,
    io_timeout: Duration,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let head = match read_request_head(&mut stream)? {
        Some(head) => head,
        None => {
            return respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                "request head too large\n",
            )
        }
    };
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "only GET is served\n",
        );
    }
    match path {
        "/metrics" | "/" => {
            let body = render_metrics(&engine.stats());
            respond(&mut stream, "200 OK", &body)
        }
        // Liveness: the process is up and answering — true even while
        // draining (the drain is the process finishing its work).
        "/healthz" => respond(&mut stream, "200 OK", "ok\n"),
        // Readiness: whether *new* work is being accepted. Flips to 503
        // the moment a drain begins, so load balancers stop routing here
        // while admitted work finishes.
        "/readyz" => {
            if engine.is_draining() {
                respond(&mut stream, "503 Service Unavailable", "draining\n")
            } else {
                respond(&mut stream, "200 OK", "ready\n")
            }
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "try /metrics, /healthz, or /readyz\n",
        ),
    }
}

/// Reads until the blank line ending the request head, bounded by
/// [`MAX_REQUEST_HEAD`]. `None` means the bound was hit first.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= MAX_REQUEST_HEAD {
            return Ok(None);
        }
        match stream.read(&mut byte)? {
            0 => break, // peer closed after (or mid) request line
            _ => head.push(byte[0]),
        }
    }
    Ok(Some(String::from_utf8_lossy(&head).into_owned()))
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_core::model::KMeans;
    use kmeans_data::PointMatrix;
    use kmeans_par::{Executor, Parallelism};

    fn engine() -> (PointMatrix, ServeEngine) {
        let mut m = PointMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (40.0, 0.0)] {
            for i in 0..40 {
                m.push(&[cx + (i % 5) as f64 * 0.2, cy + (i / 5) as f64 * 0.2])
                    .unwrap();
            }
        }
        let model = KMeans::params(2)
            .seed(9)
            .parallelism(Parallelism::Sequential)
            .fit(&m)
            .unwrap();
        let engine =
            ServeEngine::new(model.to_record(), Executor::new(Parallelism::Sequential)).unwrap();
        (m, engine)
    }

    #[test]
    fn exposition_contains_counters_and_latency_quantiles() {
        let (points, engine) = engine();
        engine.assign(points, true).unwrap();
        let text = render_metrics(&engine.stats());
        assert!(text.contains("# TYPE skm_serve_requests_total counter"));
        assert!(text.contains("skm_serve_requests_total 1"));
        assert!(text.contains("skm_serve_model_revision 1"));
        assert!(text.contains("skm_serve_request_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("skm_serve_request_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("skm_serve_request_latency_seconds_count 1"));
        assert!(text.contains("skm_serve_batch_latency_seconds_count 1"));
    }

    #[test]
    fn endpoint_answers_a_plain_http_get() {
        let (points, engine) = engine();
        engine.assign(points, true).unwrap();
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn(engine.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.contains("skm_serve_requests_total 1"));
        assert!(response.contains("skm_serve_request_latency_seconds{quantile=\"0.99\"}"));

        // Unknown paths 404; non-GET 405; the loop exits on shutdown.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));

        engine.request_shutdown();
        handle.join().unwrap().unwrap();
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn health_and_readiness_probes_track_drain() {
        let (_, engine) = engine();
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn(engine.clone());
        assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 200"));
        engine.drain();
        // Liveness stays up through a drain; readiness flips to 503.
        assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 503"));
        let metrics = http_get(addr, "/metrics");
        assert!(metrics.contains("skm_serve_draining 1"));
        engine.request_shutdown();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn exposition_contains_overload_counters() {
        let (_, engine) = engine();
        let text = render_metrics(&engine.stats());
        assert!(text.contains("# TYPE skm_serve_shed_requests_total counter"));
        assert!(text.contains("skm_serve_shed_points_total 0"));
        assert!(text.contains("skm_serve_deadline_exceeded_total 0"));
        assert!(text.contains("skm_serve_drain_rejected_total 0"));
        assert!(text.contains("skm_serve_queued_points 0"));
        assert!(text.contains(&format!(
            "skm_serve_queue_cap_points {}",
            crate::engine::DEFAULT_QUEUE_CAP_POINTS
        )));
        assert!(text.contains("skm_serve_draining 0"));
    }
}
