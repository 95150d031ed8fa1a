//! Property tests for the grid wire protocol, driven by `ppa-prng`.
//!
//! The invariant under test: decoding is *total*. Whatever bytes arrive
//! — torn frames, truncated length prefixes, flipped bits, stale
//! versions, pure garbage — `decode` returns a typed [`ProtoError`] or
//! a faithfully round-tripped message. It never panics and never
//! accepts a corrupted frame as valid.

use ppa_grid::proto::{self, Msg, ProtoError, SpanFrag};
use ppa_prng::Prng;

fn random_bytes(rng: &mut Prng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_string(rng: &mut Prng, max: usize) -> String {
    let len = rng.random_below(max as u64 + 1) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (rng.random_below(26) as u8)))
        .collect()
}

fn random_spans(rng: &mut Prng) -> Vec<SpanFrag> {
    (0..rng.random_below(4))
        .map(|_| {
            let start_us = rng.random_below(1 << 40);
            SpanFrag {
                name: random_string(rng, 48),
                pid: rng.random_below(2000),
                tid: rng.random_below(64),
                start_us,
                end_us: start_us + rng.random_below(1 << 20),
            }
        })
        .collect()
}

fn random_msg(rng: &mut Prng) -> Msg {
    let payload_len = rng.random_below(256) as usize;
    match rng.random_below(11) {
        0 => Msg::Hello {
            jobs: rng.next_u64() as u32,
        },
        1 => Msg::Lease {
            seq: rng.next_u64(),
            attempt: rng.next_u64() as u32,
            trace_id: rng.next_u64(),
            dispatch_us: rng.random_below(1 << 40),
            tag: random_string(rng, 64),
            payload: random_bytes(rng, payload_len),
        },
        2 => Msg::UnitResult {
            seq: rng.next_u64(),
            attempt: rng.next_u64() as u32,
            elapsed_ns: rng.next_u64(),
            recv_us: rng.random_below(1 << 40),
            done_us: rng.random_below(1 << 40),
            spans: random_spans(rng),
            payload: random_bytes(rng, payload_len),
        },
        3 => Msg::UnitError {
            seq: rng.next_u64(),
            attempt: rng.next_u64() as u32,
            message: random_string(rng, 120),
        },
        4 => Msg::Heartbeat {
            inflight: rng.random_range(0u32..64),
            executed: rng.random_range(0u64..10_000),
            clock_us: rng.random_below(1 << 40),
        },
        5 => Msg::Shutdown,
        6 => Msg::Submit {
            client: rng.next_u64(),
            submission: rng.next_u64(),
            trace_id: rng.next_u64(),
            priority: rng.next_u64() as u8,
            units: (0..rng.random_below(8))
                .map(|_| {
                    let len = rng.random_below(64) as usize;
                    (random_string(rng, 48), random_bytes(rng, len))
                })
                .collect(),
        },
        7 => Msg::Query {
            what: rng.next_u64() as u8,
        },
        8 => Msg::Subscribe {
            client: rng.next_u64(),
            submission: rng.next_u64(),
            from_index: rng.next_u64() as u32,
        },
        9 => Msg::Result {
            submission: rng.next_u64(),
            index: rng.next_u64() as u32,
            ok: rng.random_below(2) == 0,
            cached: rng.random_below(2) == 0,
            attempts: rng.random_range(0u32..8),
            elapsed_ns: rng.next_u64(),
            clock_us: rng.random_below(1 << 40),
            spans: random_spans(rng),
            payload: random_bytes(rng, payload_len),
        },
        _ => Msg::CacheStats {
            hits: rng.next_u64(),
            misses: rng.next_u64(),
            entries: rng.next_u64(),
            evictions: rng.next_u64(),
            queue_depth: rng.next_u64(),
            inflight: rng.next_u64(),
            clients: rng.next_u64(),
            submissions: rng.next_u64(),
            workers: rng.next_u64(),
            worker_detail: (0..rng.random_below(5))
                .map(|wid| (wid, rng.random_below(64), rng.random_below(10_000)))
                .collect(),
        },
    }
}

#[test]
fn random_messages_round_trip() {
    let mut rng = Prng::seed_from_u64(0xF0A0);
    for _ in 0..500 {
        let msg = random_msg(&mut rng);
        let frame = proto::encode(&msg);
        let (decoded, consumed) = proto::decode(&frame).expect("encoded frames decode");
        assert_eq!(decoded, msg);
        assert_eq!(consumed, frame.len());
    }
}

#[test]
fn concatenated_streams_decode_frame_by_frame() {
    let mut rng = Prng::seed_from_u64(0xF0A1);
    for _ in 0..50 {
        let msgs: Vec<Msg> = (0..rng.random_range(1..8usize))
            .map(|_| random_msg(&mut rng))
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(proto::encode).collect();
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < stream.len() {
            let (msg, consumed) = proto::decode(&stream[off..]).expect("stream frames decode");
            decoded.push(msg);
            off += consumed;
        }
        assert_eq!(decoded, msgs);
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut rng = Prng::seed_from_u64(0xF0A2);
    for _ in 0..100 {
        let frame = proto::encode(&random_msg(&mut rng));
        // Every proper prefix must decode to Truncated (the length
        // prefix itself is intact until byte 12, after which the frame
        // is simply short).
        for cut in 0..frame.len() {
            match proto::decode(&frame[..cut]) {
                Err(ProtoError::Truncated) => {}
                other => panic!("truncation at {cut}/{} gave {other:?}", frame.len()),
            }
        }
    }
}

#[test]
fn single_bit_flips_never_decode_to_the_original() {
    let mut rng = Prng::seed_from_u64(0xF0A3);
    for _ in 0..200 {
        let msg = random_msg(&mut rng);
        let frame = proto::encode(&msg);
        let bit = rng.random_below(frame.len() as u64 * 8) as usize;
        let mut torn = frame.clone();
        torn[bit / 8] ^= 1 << (bit % 8);
        match proto::decode(&torn) {
            // A flip in the payload or checksum is caught by the
            // checksum; flips in the header surface as the header
            // errors; a flip in the length prefix may leave the frame
            // "short". All fine — the one unacceptable outcome is
            // decoding successfully to the original bytes' message
            // while the wire was corrupted.
            Err(_) => {}
            Ok((decoded, _)) => panic!("bit flip at {bit} still decoded to {decoded:?}"),
        }
    }
}

#[test]
fn stale_versions_are_rejected_by_version_not_checksum() {
    let mut rng = Prng::seed_from_u64(0xF0A4);
    for _ in 0..100 {
        let mut frame = proto::encode(&random_msg(&mut rng));
        // Any version past the current one is from the future; it is
        // the only version this build speaks.
        let bad_version = (proto::VERSION + 1 + rng.random_below(1000) as u16).to_le_bytes();
        frame[4..6].copy_from_slice(&bad_version);
        // Re-seal the frame so the *only* defect is the version: a
        // stale peer computes a valid checksum over its own frames.
        let end = frame.len() - 4;
        let ck = proto::checksum(&frame[..end]);
        frame[end..].copy_from_slice(&ck.to_le_bytes());
        match proto::decode(&frame) {
            Err(ProtoError::BadVersion(v)) => assert_ne!(v, proto::VERSION),
            other => panic!("stale version gave {other:?}"),
        }
    }
}

#[test]
fn split_vocabulary_versions_are_rejected() {
    // Versions 4 (worker frames) and 5 (service frames) predate the
    // single version; a peer still stamping either must be refused even
    // when its frames are otherwise intact.
    let mut rng = Prng::seed_from_u64(0xF0A9);
    for _ in 0..200 {
        let mut frame = proto::encode(&random_msg(&mut rng));
        let old = 4 + rng.random_below(2) as u16;
        frame[4..6].copy_from_slice(&old.to_le_bytes());
        let end = frame.len() - 4;
        let ck = proto::checksum(&frame[..end]);
        frame[end..].copy_from_slice(&ck.to_le_bytes());
        assert_eq!(proto::decode(&frame), Err(ProtoError::BadVersion(old)));
    }
}

#[test]
fn corrupt_length_prefixes_cannot_oom_or_panic() {
    let mut rng = Prng::seed_from_u64(0xF0A5);
    for _ in 0..200 {
        let mut frame = proto::encode(&random_msg(&mut rng));
        let fake_len = (rng.next_u64() as u32).to_le_bytes();
        frame[8..12].copy_from_slice(&fake_len);
        // Any outcome but success-with-wrong-shape is acceptable:
        // Oversized for huge prefixes, Truncated for prefixes past the
        // buffer, BadChecksum when the resized frame happens to fit.
        let _ = proto::decode(&frame);
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Prng::seed_from_u64(0xF0A6);
    for _ in 0..2_000 {
        let len = rng.random_below(96) as usize;
        let garbage = random_bytes(&mut rng, len);
        let _ = proto::decode(&garbage);
    }
    // Garbage that keeps the real magic/version so decoding reaches the
    // deeper validation layers.
    for _ in 0..2_000 {
        let len = rng.random_below(96) as usize;
        let mut garbage = random_bytes(&mut rng, len.max(12));
        garbage[0..4].copy_from_slice(&proto::MAGIC.to_le_bytes());
        garbage[4..6].copy_from_slice(&proto::VERSION.to_le_bytes());
        let _ = proto::decode(&garbage);
    }
}

#[test]
fn unknown_types_survive_a_valid_envelope() {
    let mut rng = Prng::seed_from_u64(0xF0A7);
    for _ in 0..100 {
        let mut frame = proto::encode(&Msg::Shutdown);
        // Types 1-6 are the worker vocabulary, 7-11 the service
        // vocabulary; everything above is unknown.
        let ty = 12 + rng.random_below(244) as u8;
        frame[6] = ty;
        let end = frame.len() - 4;
        let ck = proto::checksum(&frame[..end]);
        frame[end..].copy_from_slice(&ck.to_le_bytes());
        assert_eq!(proto::decode(&frame), Err(ProtoError::UnknownType(ty)));
    }
}

#[test]
fn torn_payload_fields_are_malformed_not_panics() {
    let mut rng = Prng::seed_from_u64(0xF0A8);
    // Build syntactically valid envelopes whose payloads are garbage;
    // field parsing must fail with a typed error, not a panic, for
    // every payload-bearing type.
    for ty in [1u8, 2, 3, 4, 7, 8, 9, 10, 11] {
        for _ in 0..200 {
            let body_len = rng.random_below(64) as usize;
            let body = random_bytes(&mut rng, body_len);
            let mut frame = Vec::new();
            frame.extend_from_slice(&proto::MAGIC.to_le_bytes());
            frame.extend_from_slice(&proto::VERSION.to_le_bytes());
            frame.push(ty);
            frame.push(0);
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&body);
            let ck = proto::checksum(&frame);
            frame.extend_from_slice(&ck.to_le_bytes());
            let _ = proto::decode(&frame);
        }
    }
}

#[test]
fn huge_submit_counts_fail_without_allocating() {
    // A Submit frame whose unit count claims billions of entries must
    // fail at the per-element reads (Truncated), not preallocate first.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // client
    body.extend_from_slice(&2u64.to_le_bytes()); // submission
    body.extend_from_slice(&3u64.to_le_bytes()); // trace id
    body.push(128); // priority
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // unit count
    let mut frame = Vec::new();
    frame.extend_from_slice(&proto::MAGIC.to_le_bytes());
    frame.extend_from_slice(&proto::VERSION.to_le_bytes());
    frame.push(7); // Submit
    frame.push(0);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    let ck = proto::checksum(&frame);
    frame.extend_from_slice(&ck.to_le_bytes());
    assert_eq!(proto::decode(&frame), Err(ProtoError::Truncated));
}
