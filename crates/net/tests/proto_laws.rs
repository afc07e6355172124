//! Protocol laws, property-tested: `decode(encode(m)) == m` for every
//! verb, every reply, and every problem family — over the full frame
//! stack (JSON encode → line frame → bounded read → JSON parse) — and
//! line-numbered decode errors on trailing garbage; plus the totality
//! of the JSON string codec and of the frame reader on arbitrary bytes.

use hycim_cop::binpack::BinPacking;
use hycim_cop::coloring::GraphColoring;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::knapsack::Knapsack;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::mkp::MkpGenerator;
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::tsp::Tsp;
use hycim_cop::{AnyProblem, CopError};
use hycim_net::json::Value;
use hycim_net::{
    FrameError, JobSpec, MessageReceiver, MessageSender, ProtoError, Request, Response,
    WireSolution,
};
use hycim_service::{DisposeOutcome, JobStatus};
use proptest::prelude::*;

/// One deterministic instance of every family, derived from `seed`.
fn every_family(seed: u64) -> Vec<AnyProblem> {
    let knapsack = Knapsack::new(vec![3, 5, 7], vec![2, 4, 6], 7).expect("valid knapsack");
    let binpack = BinPacking::new(vec![3, 4, 5, 6], 10, 2).expect("valid bin packing");
    vec![
        AnyProblem::from(QkpGenerator::new(6, 0.5).generate(seed)),
        AnyProblem::from(knapsack),
        AnyProblem::from(MaxCut::random(7, 0.5, seed)),
        AnyProblem::from(SpinGlass::random_binary(5, seed).expect("n >= 2")),
        AnyProblem::from(Tsp::random_euclidean(4, 10.0, seed).expect("n >= 3")),
        AnyProblem::from(GraphColoring::random(5, 0.4, 3, seed)),
        AnyProblem::from(binpack),
        AnyProblem::from(MkpGenerator::new(5, 2).generate(seed)),
    ]
}

/// Pushes a message through the real frame stack and back.
fn round_trip(value: &Value) -> Value {
    let mut wire = Vec::new();
    MessageSender::new(&mut wire).send(value).expect("send");
    MessageReceiver::new(wire.as_slice())
        .recv()
        .expect("recv")
        .expect("one frame")
}

fn arb_solution() -> impl Strategy<Value = WireSolution> {
    (
        proptest::collection::vec(any::<bool>(), 1..24),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(bits, obj_bits, energy_bits, feasible, iters_to_best, iterations)| WireSolution {
                assignment: bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
                // From raw bits, so infinities and NaN payloads are
                // generated and must survive.
                objective: f64::from_bits(obj_bits),
                reported_energy: f64::from_bits(energy_bits),
                feasible,
                iters_to_best,
                iterations,
            },
        )
}

/// Strings weighted towards what the codec must get right: quotes,
/// backslashes, every control byte and other ASCII (from the `u8`),
/// and arbitrary scalars up to 4-byte UTF-8 (from the `u32`).
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u32>()), 0..64).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(ascii, b, u)| {
                if ascii {
                    char::from(b & 0x7f)
                } else {
                    char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}')
                }
            })
            .collect()
    })
}

/// Bytes that are mostly JSON tokens, so the reader gets past the
/// prefix and UTF-8 checks and into the parser, with raw bytes
/// (invalid UTF-8 included) mixed in.
fn arb_frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    // '|'-separated; whitespace and raw control bytes are tokens too.
    const TOKENS: &str = "{|}|[|]|\"|\"k\"|,|:|\\|\\u|00e9|d800|\\q|0|7|18446744073709551616|\
                          null|true|fals|-|.5|e3|é|\u{1f600}| |\t|\r|\n|\u{1}";
    let tokens: Vec<&str> = TOKENS.split('|').collect();
    proptest::collection::vec((any::<u8>(), any::<u8>()), 0..96).prop_map(move |picks| {
        let mut bytes = Vec::new();
        for (sel, b) in picks {
            if sel < 248 {
                bytes.extend_from_slice(tokens[usize::from(b) % tokens.len()].as_bytes());
            } else {
                bytes.push(b);
            }
        }
        bytes
    })
}

/// Field names of the protocol's messages and payloads.
#[rustfmt::skip]
const KEYS: [&str; 25] = [
    "job", "wait_ms", "spec", "family", "problem", "engine", "sweeps", "hardware_seed",
    "record_trace", "seeds", "status", "solutions", "assignment", "objective",
    "reported_energy", "feasible", "iters_to_best", "iterations", "outcome", "stats",
    "counters", "gauges", "histograms", "code", "message",
];

/// The ten verb and reply names, then tags and payload strings the
/// decoders look for.
#[rustfmt::skip]
const WORDS: [&str; 20] = [
    "submit", "poll", "fetch", "cancel", "stats", "submitted", "status", "solutions",
    "cancelled", "error", "running", "done", "deferred", "bad_request", "maxcut", "hycim",
    "3 2\n0 1 1\n1 2 2\n", "0110", "3ff0000000000000", "",
];

/// A JSON document shaped like a protocol message: a `verb` or
/// `reply` naming one of the ten messages, then each field of
/// [`KEYS`] present or not, with values (nested up to three levels)
/// drawn by `picks`. It gets past the dispatch into the field
/// decoders, where raw bytes rarely reach.
fn protocol_document(picks: &mut impl Iterator<Item = (u8, u64)>) -> Value {
    fn pick<const N: usize>(words: &[&str; N], n: u64) -> String {
        words[(n % N as u64) as usize].to_string()
    }
    fn value(picks: &mut impl Iterator<Item = (u8, u64)>, depth: u32) -> Value {
        let Some((kind, n)) = picks.next() else {
            return Value::Null;
        };
        match kind % 6 {
            0 => Value::UInt(n),
            1 => Value::Bool(n % 2 == 1),
            2 => Value::Str(pick(&WORDS, n)),
            3 => Value::Null,
            4 if depth < 3 => Value::Array((0..n % 4).map(|_| value(picks, depth + 1)).collect()),
            5 if depth < 3 => Value::Object(
                // Keys stay unique: the parser refuses duplicates.
                (0..KEYS.len() as u64)
                    .filter(|k| (n >> k) & 1 == 1)
                    .take(4)
                    .map(|k| (KEYS[k as usize].to_string(), value(picks, depth + 1)))
                    .collect(),
            ),
            _ => Value::UInt(n % 4),
        }
    }
    let (head, mask) = picks.next().unwrap_or((0, 0));
    let tag = if head % 2 == 0 { "verb" } else { "reply" };
    let mut fields = vec![(
        tag.to_string(),
        Value::Str(pick(&WORDS, u64::from(head / 2) % 10)),
    )];
    for (k, key) in KEYS.iter().enumerate() {
        if (mask >> k) & 1 == 1 {
            fields.push((key.to_string(), value(picks, 1)));
        }
    }
    Value::Object(fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(encode(Str(s))) == Str(s)` for every string, directly
    /// and through the frame stack.
    #[test]
    fn any_string_round_trips(s in arb_string()) {
        let v = Value::Str(s);
        let text = v.encode();
        prop_assert!(!text.contains('\n'), "encoded form is single-line");
        prop_assert_eq!(Value::parse(&text).expect("encoded string parses"), v.clone());
        prop_assert_eq!(round_trip(&v), v);
    }

    /// The protocol decoders are total: whatever frame the reader
    /// yields — from raw bytes, or from a document built out of the
    /// protocol's own keys and tags — `Request::from_value` and
    /// `Response::from_value` give a message or a typed `ProtoError`,
    /// never a panic.
    #[test]
    fn protocol_decoders_are_total(
        bytes in arb_frame_bytes(),
        picks in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..48),
    ) {
        let mut wire = b"hycim1 ".to_vec();
        wire.extend_from_slice(&bytes);
        wire.push(b'\n');
        let mut frames = Vec::new();
        let mut receiver = MessageReceiver::new(wire.as_slice());
        while let Ok(Some(frame)) = receiver.recv() {
            frames.push(frame);
        }
        frames.push(round_trip(&protocol_document(&mut picks.into_iter())));
        for frame in frames {
            // Reaching the end of each call without a panic is the law.
            let _: Result<Request, ProtoError> = Request::from_value(&frame);
            let _: Result<Response, ProtoError> = Response::from_value(&frame);
        }
    }

    /// The frame reader is total: on `hycim1 ` plus any bytes it
    /// yields frames, a clean end or a typed error — never a panic —
    /// and a JSON error's offset lies inside the payload.
    #[test]
    fn frame_reader_is_total(bytes in arb_frame_bytes()) {
        let mut wire = b"hycim1 ".to_vec();
        wire.extend_from_slice(&bytes);
        let first_line = wire.split(|&b| b == b'\n').next().expect("split yields one");
        let payload_len = first_line.len() - "hycim1 ".len();
        let mut receiver = MessageReceiver::new(wire.as_slice());
        match receiver.recv() {
            Ok(frame) => prop_assert!(frame.is_some(), "a prefixed line is a frame"),
            Err(FrameError::Json(e)) => prop_assert!(e.offset <= payload_len, "{}", e),
            Err(FrameError::BadPrefix { .. } | FrameError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        // Whatever follows a newline token is read on as well: it must
        // not panic either.
        for _ in 0..bytes.len() {
            match receiver.recv() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// A `poll` frame from a client that predates `wait_ms` decodes to a
/// poll the worker answers at once.
#[test]
fn poll_without_wait_ms_decodes_to_an_immediate_poll() {
    let mut receiver = MessageReceiver::new(&b"hycim1 {\"verb\":\"poll\",\"job\":7}\n"[..]);
    let frame = receiver.recv().expect("recv").expect("one frame");
    assert_eq!(
        Request::from_value(&frame).expect("valid frame decodes"),
        Request::Poll {
            job: 7,
            wait_ms: None
        }
    );
    // And the encoder leaves the field out when there is no wait.
    let encoded = Request::Poll {
        job: 7,
        wait_ms: None,
    }
    .to_value()
    .encode();
    assert!(!encoded.contains("wait_ms"), "{encoded}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Submit round-trips for every problem family, with the instance
    /// reconstructing to its exact canonical form.
    #[test]
    fn submit_round_trips_every_family(
        seed in any::<u64>(),
        sweeps in 1u64..10_000,
        hardware_seed in any::<u64>(),
        record_trace in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        for problem in every_family(seed) {
            let spec = JobSpec {
                family: problem.family_tag().to_string(),
                problem: problem.to_wire(),
                engine: "hycim".to_string(),
                sweeps,
                hardware_seed,
                record_trace,
                seeds: seeds.clone(),
            };
            let request = Request::Submit(spec.clone());
            let decoded = Request::from_value(&round_trip(&request.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(&decoded, &request);
            // The carried instance reconstructs and re-encodes to the
            // same canonical text (the bit-exactness contract).
            let rebuilt = spec.decode_problem().expect("canonical text parses");
            prop_assert_eq!(rebuilt.to_wire(), spec.problem);
        }
    }

    /// The id-carrying verbs round-trip for any id, and `poll` with
    /// or without any `wait_ms`.
    #[test]
    fn id_verbs_round_trip(job in any::<u64>(), wait in any::<u64>()) {
        for request in [
            Request::Poll { job, wait_ms: None },
            Request::Poll { job, wait_ms: Some(wait) },
            Request::Fetch { job },
            Request::Cancel { job },
        ] {
            let decoded = Request::from_value(&round_trip(&request.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(decoded, request);
        }
    }

    /// Every reply kind round-trips, including solutions with
    /// arbitrary IEEE-754 bit patterns (NaN payloads, infinities,
    /// negative zero).
    #[test]
    fn responses_round_trip(
        job in any::<u64>(),
        solutions in proptest::collection::vec(arb_solution(), 0..5),
        message_bytes in proptest::collection::vec(32u8..127, 0..40),
    ) {
        let message: String = message_bytes.iter().map(|&b| b as char).collect();
        let mut responses = vec![
            Response::Submitted { job },
            Response::Solutions { job, solutions },
        ];
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            responses.push(Response::Status { job, status });
        }
        for outcome in [
            DisposeOutcome::Unknown,
            DisposeOutcome::Cancelled,
            DisposeOutcome::Deferred,
            DisposeOutcome::Discarded,
        ] {
            responses.push(Response::Cancelled { job, outcome });
        }
        for code in hycim_net::ErrorCode::ALL {
            responses.push(Response::Error { code, message: message.clone() });
        }
        for response in responses {
            let decoded = Response::from_value(&round_trip(&response.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(decoded, response);
        }
    }

    /// Trailing garbage after a canonical problem payload fails with
    /// the exact line number of the garbage, for every family.
    #[test]
    fn trailing_garbage_is_rejected_with_its_line(seed in any::<u64>()) {
        for problem in every_family(seed) {
            let clean = problem.to_wire();
            let garbage_line = clean.lines().count() + 1;
            let spec = JobSpec {
                family: problem.family_tag().to_string(),
                problem: format!("{clean}trailing garbage\n"),
                engine: "hycim".to_string(),
                sweeps: 10,
                hardware_seed: 0,
                record_trace: true,
                seeds: vec![1],
            };
            match spec.decode_problem() {
                Err(CopError::ParseFailure { line, .. }) => {
                    prop_assert_eq!(
                        line, garbage_line,
                        "{}: garbage line is named", problem.family_tag()
                    );
                }
                other => prop_assert!(
                    false,
                    "{}: expected ParseFailure, got {:?}",
                    problem.family_tag(),
                    other
                ),
            }
        }
    }

    /// A frame with trailing bytes after the JSON document is
    /// rejected at the frame layer (the offset names the garbage).
    #[test]
    fn trailing_frame_garbage_is_rejected(job in any::<u64>()) {
        let mut wire = Vec::new();
        MessageSender::new(&mut wire)
            .send(&Request::Poll { job, wait_ms: None }.to_value())
            .expect("send");
        // Splice garbage between the document and the newline.
        let split = wire.len() - 1;
        wire.splice(split..split, b" {}".iter().copied());
        match MessageReceiver::new(wire.as_slice()).recv() {
            Err(hycim_net::FrameError::Json(e)) => {
                prop_assert!(e.message.contains("trailing input"), "{}", e);
            }
            other => prop_assert!(false, "expected a Json frame error, got {other:?}"),
        }
    }
}
