//! Frame forms on real sockets. Every current peer speaks the one `…2`
//! form (the word-wide checksum over the whole frame). A peer that sends
//! a frame of the retired `…1` form (FNV-1a over tag and payload) gets no
//! reply: the session that read it ends with a typed `BadMagic`, and a
//! serve daemon goes on answering other clients. A current peer opened
//! against a form-1-only peer fails with a typed error, never a hang.
//!
//! Form-1 frames here are built by hand, with a local FNV-1a: the library
//! has no encoder for them.

use scalable_kmeans::cluster::{spawn_tcp_worker, ClusterError, FrameError, Message, WireMessage};
use scalable_kmeans::data::InMemorySource;
use scalable_kmeans::prelude::*;
use scalable_kmeans::serve::{spawn_tcp_serve, ServeClient, ServeEngine, ServeMessage};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const IO: Option<Duration> = Some(Duration::from_secs(30));

/// 64-bit FNV-1a, written out independently of the library.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The message as a hand-built form-1 frame: its vocabulary's letters
/// and `1`, tag, length, payload, FNV-1a over tag and payload.
fn v1_frame_of<M: WireMessage>(msg: &M) -> Vec<u8> {
    let (tag, payload) = (msg.tag(), msg.encode_payload());
    let mut frame = M::MAGIC[..3].to_vec();
    frame.push(b'1');
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut checked = vec![tag];
    checked.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv1a(&checked).to_le_bytes());
    frame
}

/// Reads one whole frame's bytes off a raw socket.
fn read_raw(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 9];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
    frame.resize(9 + len + 8, 0);
    stream.read_exact(&mut frame[9..]).unwrap();
    frame
}

/// Asserts that the peer closed `stream` without writing a byte more.
fn assert_closed_without_reply(stream: &mut TcpStream) {
    let mut reply = Vec::new();
    let end = stream.read_to_end(&mut reply);
    assert!(reply.is_empty(), "{} reply bytes", reply.len());
    match end {
        Ok(_) => {}
        // A close with unread bytes queued may reset instead.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected end of stream, got {e}"),
    }
}

fn fitted_model() -> (KMeansModel, PointMatrix) {
    let data = GaussMixture::new(5)
        .points(500)
        .center_variance(60.0)
        .generate(17)
        .unwrap()
        .dataset
        .points()
        .clone();
    let model = KMeans::params(5)
        .seed(2)
        .parallelism(Parallelism::Sequential)
        .fit(&data)
        .unwrap();
    (model, data)
}

#[test]
fn a_form_1_client_is_refused_and_the_server_keeps_serving() {
    let (model, data) = fitted_model();
    let engine =
        ServeEngine::new(model.to_record(), Executor::new(Parallelism::Sequential)).unwrap();
    let (addr, server) = spawn_tcp_serve(engine, IO).unwrap();

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(IO).unwrap();
    let hello = v1_frame_of(&ServeMessage::Hello);
    assert_eq!(hello[..4], *b"SKS1");
    raw.write_all(&hello).unwrap();
    assert_closed_without_reply(&mut raw);

    // The daemon still answers a current client, bit for bit.
    let mut client = ServeClient::connect(&addr.to_string(), IO).unwrap();
    let d = data.dim();
    let query = PointMatrix::from_flat(data.as_slice()[40 * d..240 * d].to_vec(), d).unwrap();
    let served = client.predict(&query).unwrap();
    assert_eq!(served.labels, model.predict(&query).unwrap());
    assert_eq!(
        served.cost.to_bits(),
        model.cost_of(&query).unwrap().to_bits()
    );
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_worker_refuses_a_form_1_coordinator() {
    let (_, data) = fitted_model();
    let source = InMemorySource::new(data, 64).unwrap();
    let (addr, worker) = spawn_tcp_worker(source, Parallelism::Sequential, IO).unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(IO).unwrap();

    // The worker opens in form 2 ...
    let hello = read_raw(&mut raw);
    assert_eq!(hello[..4], *b"SKW2");
    let (msg, _) = Message::decode_frame(&hello, usize::MAX).unwrap();
    assert!(matches!(msg, Message::Hello { rows: 500, .. }), "{msg:?}");

    // ... and ends the session on a form-1 frame, unanswered.
    raw.write_all(&v1_frame_of(&Message::Shutdown)).unwrap();
    assert!(matches!(
        worker.join().unwrap(),
        Err(ClusterError::Frame(FrameError::BadMagic))
    ));
    assert_closed_without_reply(&mut raw);
}

#[test]
fn a_new_client_gets_a_typed_error_from_a_form_1_only_server() {
    // The form-1-only server reads a header, finds a magic it does not
    // know, and hangs up — what a server that predates form 2 does.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut header = [0u8; 9];
        stream.read_exact(&mut header).unwrap();
        header[..4] == *b"SKS1"
    });
    let timeout = Duration::from_secs(5);
    let start = Instant::now();
    let err = ServeClient::connect(&addr.to_string(), Some(timeout)).unwrap_err();
    assert!(start.elapsed() < timeout, "took {:?}", start.elapsed());
    assert!(
        matches!(err, ClusterError::Disconnected | ClusterError::Io(_)),
        "{err:?}"
    );
    assert!(!old_server.join().unwrap(), "the client opened in form 1");
}

#[test]
fn a_flipped_vocabulary_letter_is_a_checksum_error_in_form_2() {
    // `S` (0x53) and `W` (0x57) differ in one bit. Form 2 hashes the
    // magic, so the flip cannot hand a serve frame to the cluster
    // decoder or the reverse.
    let mut serve = ServeMessage::Hello.encode_frame();
    serve[2] ^= 0x04;
    assert!(matches!(
        Message::decode_frame(&serve, usize::MAX),
        Err(scalable_kmeans::cluster::FrameError::Checksum { .. })
    ));
    let mut cluster = Message::Shutdown.encode_frame();
    cluster[2] ^= 0x04;
    assert!(matches!(
        ServeMessage::decode_frame(&cluster, usize::MAX),
        Err(scalable_kmeans::cluster::FrameError::Checksum { .. })
    ));
}
