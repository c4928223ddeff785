//! Mixed frame forms on real sockets. Frames come in two forms: `…1`
//! (FNV-1a over tag and payload) and `…2` (the word-wide checksum over
//! the whole frame). A transport answers in the form of the last frame it
//! received and speaks form 2 before it has received one, so a form-1
//! peer that opens the conversation keeps a working session, and a
//! form-1-only peer that is opened in form 2 fails with a typed error,
//! never a hang.
//!
//! Form-1 frames here are built and checked by hand, with a local FNV-1a,
//! so the tests do not lean on the library's own form-1 encoder.

use scalable_kmeans::cluster::transport::{TcpTransport, Transport};
use scalable_kmeans::cluster::{ClusterError, FrameForm, Message, WireMessage};
use scalable_kmeans::prelude::*;
use scalable_kmeans::serve::{spawn_tcp_serve, ServeClient, ServeEngine, ServeMessage};
use std::fmt::Debug;
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

/// A form-1 frame: `magic`, tag, length, payload, FNV-1a over tag and
/// payload.
fn v1_frame(magic: [u8; 4], tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = magic.to_vec();
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let mut checked = vec![tag];
    checked.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(&checked).to_le_bytes());
    frame
}

/// The message as a hand-built form-1 frame.
fn v1_frame_of<M: WireMessage>(msg: &M) -> Vec<u8> {
    v1_frame(M::MAGIC, msg.tag(), &msg.encode_payload())
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

/// Checks that `frame` is a form-1 frame of `M` with a valid FNV-1a
/// trailer, and decodes its payload.
fn open_v1<M: WireMessage>(frame: &[u8]) -> M {
    assert_eq!(frame[..4], M::MAGIC, "not a form-1 frame");
    let len = frame.len() - 8;
    let trailer = u64::from_le_bytes(frame[len..].try_into().unwrap());
    let mut checked = vec![frame[4]];
    checked.extend_from_slice(&frame[9..len]);
    assert_eq!(trailer, fnv1a(&checked), "form-1 trailer does not verify");
    M::decode_payload(frame[4], &frame[9..len]).unwrap()
}

/// One `TcpTransport<M>` facing a raw socket: it speaks form 2 while
/// fresh, mirrors a form-1 frame, and goes back to form 2 after a form-2
/// frame.
fn transport_mirrors_the_form_it_received<M>(request: M, reply: M)
where
    M: WireMessage + Clone + PartialEq + Debug + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (request_at_peer, reply_at_peer) = (request.clone(), reply.clone());
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::<M>::new(stream, IO).unwrap();
        t.send(&reply_at_peer).unwrap();
        for _ in 0..2 {
            assert_eq!(t.recv().unwrap(), request_at_peer);
            t.send(&reply_at_peer).unwrap();
        }
    });
    let mut raw = TcpStream::connect(addr).unwrap();

    // A fresh transport sends form 2.
    let fresh = read_raw(&mut raw);
    assert_eq!(fresh[..4], FrameForm::V2.magic(M::MAGIC));
    let decoded = M::decode_frame_form(&fresh, usize::MAX).unwrap();
    assert_eq!(decoded, (reply.clone(), fresh.len(), FrameForm::V2));

    // A hand-built form-1 frame is decoded, and answered in form 1.
    raw.write_all(&v1_frame_of(&request)).unwrap();
    let answer = read_raw(&mut raw);
    assert_eq!(open_v1::<M>(&answer), reply);
    assert_eq!(answer.len(), fresh.len(), "forms differ in size");

    // A form-2 frame switches it back.
    raw.write_all(&request.encode_frame()).unwrap();
    let answer = read_raw(&mut raw);
    assert_eq!(answer, fresh);
    peer.join().unwrap();
}

#[test]
fn skw_transport_answers_in_the_form_it_last_received() {
    let centers = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.5], 2).unwrap();
    transport_mirrors_the_form_it_received(
        Message::Cost { centers },
        Message::ShardSums {
            sums: vec![0.25, -3.5, f64::MAX],
        },
    );
}

#[test]
fn sks_transport_answers_in_the_form_it_last_received() {
    let points = PointMatrix::from_flat(vec![0.5, 1.5, -2.0, 7.0, 3.25, 0.0], 3).unwrap();
    transport_mirrors_the_form_it_received(
        ServeMessage::Predict {
            points,
            deadline_ms: Some(250),
        },
        ServeMessage::Labels {
            revision: 4,
            labels: vec![3, 1],
            cost: 12.75,
        },
    );
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
fn a_form_1_client_keeps_a_working_session_with_a_new_server() {
    let (model, data) = fitted_model();
    let engine =
        ServeEngine::new(model.to_record(), Executor::new(Parallelism::Sequential)).unwrap();
    let (addr, server) = spawn_tcp_serve(engine, IO).unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(IO).unwrap();

    raw.write_all(&v1_frame_of(&ServeMessage::Hello)).unwrap();
    match open_v1::<ServeMessage>(&read_raw(&mut raw)) {
        ServeMessage::ModelInfo { k, dim, .. } => {
            assert_eq!((k, dim), (5, data.dim() as u32));
        }
        other => panic!("expected ModelInfo, got {other:?}"),
    }

    let d = data.dim();
    let query = PointMatrix::from_flat(data.as_slice()[40 * d..240 * d].to_vec(), d).unwrap();
    let predict = ServeMessage::Predict {
        points: query.clone(),
        deadline_ms: None,
    };
    raw.write_all(&v1_frame_of(&predict)).unwrap();
    match open_v1::<ServeMessage>(&read_raw(&mut raw)) {
        ServeMessage::Labels { labels, cost, .. } => {
            assert_eq!(labels, model.predict(&query).unwrap());
            assert_eq!(cost.to_bits(), model.cost_of(&query).unwrap().to_bits());
        }
        other => panic!("expected Labels, got {other:?}"),
    }

    raw.write_all(&v1_frame_of(&ServeMessage::Shutdown))
        .unwrap();
    assert_eq!(
        open_v1::<ServeMessage>(&read_raw(&mut raw)),
        ServeMessage::ShutdownOk
    );
    server.join().unwrap().unwrap();
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
