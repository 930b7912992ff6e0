//! Property tests for artifact content hashing and cache keying.
//!
//! Three contracts back the content-addressed cache:
//!
//! * **Re-serialization invariance** — a circuit's hash is a function of
//!   its *content*, so the qasm text → parse → dump → parse round trip
//!   lands on the same key. (Angles in the corpus are multiples of
//!   2⁻¹¹ so the exporter's 12-decimal rendering is exact; arbitrary
//!   floats would test the printer, not the hash.)
//! * **No collisions in practice** — structurally distinct circuits get
//!   distinct 64-bit hashes across a sizeable random corpus. FNV-1a is
//!   not cryptographic, so this is an empirical bound, not a proof.
//! * **Epoch isolation** — an artifact stored under one `(device, epoch)`
//!   token is invisible under any other token or pass id: calibration
//!   drift can never serve a stale compilation result.
//! * **Memo invalidation** — a circuit's key is memoized, and every way
//!   of appending to a circuit resets the memo: whatever was read
//!   before, the key equals that of the same instructions pushed into a
//!   fresh circuit. Debug builds also re-stream on every read; these
//!   properties hold the release build (`ci.sh` runs both) to it.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use xtalk_ir::{qasm, Circuit};
use xtalk_pass::{ArtifactCache, ContentHash, EpochToken};

/// Register width of every generated circuit.
const NQ: u32 = 5;

/// One encoded operation: `(opcode, qubit a, qubit b, angle numerator)`.
type Op = (usize, u32, u32, u32);

/// Number of opcodes [`apply`] understands.
const NUM_OPS: usize = 20;

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..NUM_OPS, 0u32..NQ, 0u32..NQ, 0u32..=2048)
}

/// Appends the decoded op to `c`. Angles are `k/1024 − 1 ∈ [−1, 1]`:
/// dyadic rationals whose decimal expansion fits in the qasm exporter's
/// 12 fractional digits, so dump/parse is bit-exact.
fn apply(c: &mut Circuit, (op, a, b, k): Op) {
    let th = f64::from(k) / 1024.0 - 1.0;
    let b = if a == b { (b + 1) % NQ } else { b };
    match op {
        0 => c.id(a),
        1 => c.x(a),
        2 => c.y(a),
        3 => c.z(a),
        4 => c.h(a),
        5 => c.s(a),
        6 => c.sdg(a),
        7 => c.t(a),
        8 => c.tdg(a),
        9 => c.u1(th, a),
        10 => c.rx(th, a),
        11 => c.ry(th, a),
        12 => c.rz(th, a),
        13 => c.u2(th, -th, a),
        14 => c.u3(th, th / 2.0, -th, a),
        15 => c.cx(a, b),
        16 => c.cz(a, b),
        17 => c.swap(a, b),
        18 => c.measure(a, a),
        _ => c.barrier([a, b]),
    };
}

fn build(ops: &[Op]) -> Circuit {
    let mut c = Circuit::new(NQ as usize, NQ as usize);
    for &op in ops {
        apply(&mut c, op);
    }
    c
}

/// The same instructions pushed into a new circuit whose key was never
/// read.
fn rebuilt(c: &Circuit) -> Circuit {
    let mut fresh = Circuit::new(c.num_qubits(), c.num_clbits());
    for ins in c {
        fresh.push(ins.clone());
    }
    fresh
}

/// One mutation or key read: `(kind, op, ops)`.
type Step = (usize, Op, Vec<Op>);

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..8, op_strategy(), prop::collection::vec(op_strategy(), 0..4))
}

/// Applies `step` to `c`. Kinds 0–2 call a builder, 3 pushes a raw
/// instruction, 4 extends by a small circuit, 5 measures all, 6 puts a
/// barrier on all; kind 7 reads the key and returns it.
fn mutate(c: &mut Circuit, (kind, op, ops): &Step) -> Option<u64> {
    match kind {
        0..=2 => {
            apply(c, *op);
        }
        3 => {
            let ins = build(&[*op]).instructions()[0].clone();
            c.push(ins);
        }
        4 => c.try_extend(&build(ops)).expect("same registers"),
        5 => {
            c.measure_all();
        }
        6 => {
            c.barrier_all();
        }
        _ => return Some(c.hash_value()),
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// dump → parse → dump is a fixed point, and every leg of the trip
    /// keys to the same cache slot.
    #[test]
    fn qasm_round_trip_is_hash_invariant(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let circuit = build(&ops);
        let text = qasm::dump(&circuit);
        let back = qasm::parse(&text)
            .unwrap_or_else(|e| panic!("exporter produced unparseable qasm: {e}\n{text}"));
        prop_assert_eq!(&back, &circuit, "round trip must preserve structure");
        prop_assert_eq!(back.hash_value(), circuit.hash_value());
        prop_assert_eq!(qasm::dump(&back), text, "dump must be a fixed point");
    }

    /// Structurally distinct circuits in the same batch never share a
    /// hash; structurally equal ones always do.
    #[test]
    fn pairwise_hashes_track_structure(
        batch in prop::collection::vec(prop::collection::vec(op_strategy(), 0..40), 2..6),
    ) {
        let circuits: Vec<Circuit> = batch.iter().map(|ops| build(ops)).collect();
        for i in 0..circuits.len() {
            for j in i + 1..circuits.len() {
                if circuits[i] == circuits[j] {
                    prop_assert_eq!(circuits[i].hash_value(), circuits[j].hash_value());
                } else {
                    prop_assert_ne!(circuits[i].hash_value(), circuits[j].hash_value());
                }
            }
        }
    }

    /// An artifact cached under one `(pass, hash, device, epoch)` key is
    /// unreachable from every other key — wrong epoch, wrong device, or
    /// wrong pass id is always a miss, and the matching key always hits.
    #[test]
    fn cache_never_crosses_epoch_device_or_pass(
        hash in 0u64..u64::MAX,
        dev in 0usize..3,
        epoch in 0u64..4,
        probe_dev in 0usize..3,
        probe_epoch in 0u64..4,
    ) {
        const DEVICES: [&str; 3] = ["poughkeepsie", "johannesburg", "melbourne"];
        let cache = ArtifactCache::new();
        let stored = EpochToken::new(DEVICES[dev], epoch);
        cache.put("place", hash, &stored, Arc::new(0xfeed_u64));

        let probe = EpochToken::new(DEVICES[probe_dev], probe_epoch);
        let got = cache.get::<u64>("place", hash, &probe);
        if probe == stored {
            prop_assert!(got.is_some(), "matching token must hit");
        } else {
            prop_assert!(got.is_none(), "{:?} must not see {:?}'s artifact", probe, stored);
        }
        prop_assert!(
            cache.get::<u64>("route", hash, &stored).is_none(),
            "a different pass id must never alias"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever mix of builders, pushes, extends, `measure_all` and
    /// `barrier_all` runs between key reads, every read — and the key at
    /// the end — equals the key of the same instructions in a fresh
    /// circuit.
    #[test]
    fn memoized_key_tracks_every_mutation(
        steps in prop::collection::vec(step_strategy(), 0..30),
    ) {
        let mut c = Circuit::new(NQ as usize, NQ as usize);
        for step in &steps {
            if let Some(read) = mutate(&mut c, step) {
                prop_assert_eq!(read, rebuilt(&c).hash_value(), "stale key after {:?}", step);
            }
        }
        prop_assert_eq!(c.hash_value(), rebuilt(&c).hash_value());
        prop_assert_eq!(c.content_key(), rebuilt(&c).content_key());
    }

    /// A clone carries the key, and appending to the clone leaves the
    /// original's key as it was.
    #[test]
    fn pushing_onto_a_clone_leaves_the_original_key(
        ops in prop::collection::vec(op_strategy(), 0..30),
        read_first in 0u8..2,
        extra in prop::collection::vec(step_strategy(), 1..6),
    ) {
        let original = build(&ops);
        if read_first == 1 {
            original.content_key();
        }
        let key = rebuilt(&original).content_key();
        let mut copy = original.clone();
        prop_assert_eq!(copy.content_key(), key);
        for step in &extra {
            mutate(&mut copy, step);
        }
        prop_assert_eq!(original.content_key(), key);
        prop_assert_eq!(copy.content_key(), rebuilt(&copy).content_key());
    }

    /// Reading the key changes neither equality nor any formatting.
    #[test]
    fn reading_the_key_is_invisible_to_eq_and_formatting(
        ops in prop::collection::vec(op_strategy(), 0..30),
    ) {
        let read = build(&ops);
        read.content_key();
        let unread = build(&ops);
        prop_assert_eq!(&read, &unread);
        prop_assert_eq!(format!("{read:?}"), format!("{unread:?}"));
        prop_assert_eq!(format!("{read:#?}"), format!("{unread:#?}"));
        prop_assert_eq!(read.to_string(), unread.to_string());
    }
}

/// Empirical collision bound: a 512-circuit random corpus (plus every
/// qasm round-trip image) maps injectively from structure to hash.
#[test]
fn no_collisions_across_corpus() {
    let mut rng = TestRng::from_name("hash_props::no_collisions_across_corpus");
    let strat = prop::collection::vec(op_strategy(), 0..60);
    let mut seen: HashMap<u64, Circuit> = HashMap::new();
    let mut distinct = 0usize;
    for _ in 0..512 {
        let circuit = build(&Strategy::generate(&strat, &mut rng));
        let roundtrip = qasm::parse(&qasm::dump(&circuit)).expect("corpus round-trips");
        assert_eq!(roundtrip.hash_value(), circuit.hash_value());
        match seen.insert(circuit.hash_value(), circuit.clone()) {
            Some(prev) => assert_eq!(prev, circuit, "hash collision between distinct circuits"),
            None => distinct += 1,
        }
    }
    // The corpus is random enough that near-all samples are distinct;
    // the real assertion is the collision check above.
    assert!(distinct > 256, "corpus degenerated: only {distinct} distinct circuits");
}
