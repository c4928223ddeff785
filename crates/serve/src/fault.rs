//! Deterministic fault injection for the serving tier — the cluster
//! runtime's [`FaultTransport`] instantiated over the `SKS` vocabulary.
//!
//! The wrapper machinery (scripted kills, mid-frame truncations, and
//! delays keyed by `(message tag, occurrence)`) is
//! `kmeans_cluster::fault`, generic over any
//! [`WireMessage`](kmeans_cluster::wire::WireMessage); this module
//! supplies the serve-side pieces: tag constants for scripting against
//! [`ServeMessage`] without constructing throwaway frames, and spawn
//! harnesses that wrap the *server* side of a session — so a scripted
//! crash looks to the client exactly like a serving replica dying
//! mid-reply, over a channel or a real socket.
//!
//! `tests/serve_failure_injection.rs` drives these harnesses: overload
//! shedding under a stalled combiner, drains that lose nothing, and a
//! replica-set client surviving scripted kills with byte-identical
//! answers.

use crate::engine::ServeEngine;
use crate::protocol::ServeMessage;
use crate::server::session;
use kmeans_cluster::fault::{FaultAction, FaultTransport};
use kmeans_cluster::transport::{loopback_pair, LoopbackTransport, TcpTransport};
use kmeans_cluster::ClusterError;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Message-tag constants for scripting faults against the serve `SKS`
/// vocabulary. Mirrors [`ServeMessage`]'s tag map (round-trip pinned by
/// a test).
pub mod tag {
    /// `Hello` — the handshake request.
    pub const HELLO: u8 = 1;
    /// `ModelInfo` — the handshake reply.
    pub const MODEL_INFO: u8 = 2;
    /// `Predict` — an assignment request.
    pub const PREDICT: u8 = 3;
    /// `Labels` — a predict reply.
    pub const LABELS: u8 = 4;
    /// `Cost` — a potential-only request.
    pub const COST: u8 = 5;
    /// `CostReply` — its reply.
    pub const COST_REPLY: u8 = 6;
    /// `FetchStats` — the statistics request.
    pub const FETCH_STATS: u8 = 7;
    /// `Stats` — its reply.
    pub const STATS: u8 = 8;
    /// `SwapModel` — a hot-swap request.
    pub const SWAP_MODEL: u8 = 9;
    /// `SwapOk` — its reply.
    pub const SWAP_OK: u8 = 10;
    /// `Error` — a typed failure reply.
    pub const ERROR: u8 = 11;
    /// `Shutdown` — the stop request.
    pub const SHUTDOWN: u8 = 12;
    /// `ShutdownOk` — its reply.
    pub const SHUTDOWN_OK: u8 = 13;
    /// `Drain` — the graceful-drain request.
    pub const DRAIN: u8 = 14;
    /// `DrainOk` — its reply.
    pub const DRAIN_OK: u8 = 15;
}

/// [`crate::server::spawn_loopback_serve`] with a fault script wrapped
/// around the server's side of the channel. Returns the client-side
/// transport and the session thread's handle (which ends in `Err` when a
/// send-path fault kills the session mid-reply).
pub fn spawn_loopback_serve_with_faults(
    engine: &ServeEngine,
    script: Vec<FaultAction>,
) -> (
    LoopbackTransport<ServeMessage>,
    std::thread::JoinHandle<Result<(), ClusterError>>,
) {
    let (client_side, server_side) = loopback_pair::<ServeMessage>();
    let mut faulty = FaultTransport::new(Box::new(server_side), script);
    let session_engine = engine.clone();
    let handle = std::thread::spawn(move || session(&mut faulty, &session_engine));
    (client_side, handle)
}

/// [`crate::server::spawn_tcp_serve`] with a fault script: serves one
/// session on an ephemeral localhost port through a
/// [`FaultTransport`], so scripted crashes happen over a real socket
/// (partial frame bytes, RST/EOF on the client side). Returns the bound
/// address and the session thread's handle.
pub fn spawn_tcp_serve_with_faults(
    engine: &ServeEngine,
    io_timeout: Option<Duration>,
    script: Vec<FaultAction>,
) -> std::io::Result<(
    SocketAddr,
    std::thread::JoinHandle<Result<(), ClusterError>>,
)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let session_engine = engine.clone();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept()?;
        let transport = TcpTransport::<ServeMessage>::new(stream, io_timeout)?;
        let mut faulty = FaultTransport::new(Box::new(transport), script);
        session(&mut faulty, &session_engine)
    });
    Ok((addr, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServeStats;
    use kmeans_cluster::wire::WireMessage as _;
    use kmeans_data::PointMatrix;

    #[test]
    fn tag_constants_match_the_protocol() {
        let m = PointMatrix::new(1);
        assert_eq!(ServeMessage::Hello.tag(), tag::HELLO);
        assert_eq!(
            ServeMessage::ModelInfo {
                revision: 0,
                k: 0,
                dim: 0,
                cost: 0.0,
                init_name: String::new(),
                refiner_name: String::new(),
                batch_cap: 0,
            }
            .tag(),
            tag::MODEL_INFO
        );
        assert_eq!(
            ServeMessage::Predict {
                points: m.clone(),
                deadline_ms: None,
            }
            .tag(),
            tag::PREDICT
        );
        assert_eq!(
            ServeMessage::Labels {
                revision: 0,
                labels: vec![],
                cost: 0.0,
            }
            .tag(),
            tag::LABELS
        );
        assert_eq!(
            ServeMessage::Cost {
                points: m,
                deadline_ms: None,
            }
            .tag(),
            tag::COST
        );
        assert_eq!(
            ServeMessage::CostReply {
                revision: 0,
                n: 0,
                cost: 0.0,
            }
            .tag(),
            tag::COST_REPLY
        );
        assert_eq!(ServeMessage::FetchStats.tag(), tag::FETCH_STATS);
        assert_eq!(ServeMessage::Stats(ServeStats::default()).tag(), tag::STATS);
        assert_eq!(
            ServeMessage::SwapModel { model: vec![] }.tag(),
            tag::SWAP_MODEL
        );
        assert_eq!(
            ServeMessage::SwapOk {
                revision: 0,
                k: 0,
                dim: 0,
            }
            .tag(),
            tag::SWAP_OK
        );
        assert_eq!(
            ServeMessage::Error(kmeans_cluster::protocol::WireError::Draining).tag(),
            tag::ERROR
        );
        assert_eq!(ServeMessage::Shutdown.tag(), tag::SHUTDOWN);
        assert_eq!(ServeMessage::ShutdownOk.tag(), tag::SHUTDOWN_OK);
        assert_eq!(ServeMessage::Drain.tag(), tag::DRAIN);
        assert_eq!(
            ServeMessage::DrainOk { queued_points: 0 }.tag(),
            tag::DRAIN_OK
        );
    }
}
