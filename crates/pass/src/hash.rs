//! Content hashing for pipeline artifacts.
//!
//! Every artifact flowing between passes implements [`ContentHash`]: a
//! structural hash over the *data* of the value (not its memory layout or
//! serialization), fed through [FNV-1a]. Two artifacts hash equal iff a
//! pass would treat them identically, which is what makes the hash usable
//! as a cache key — the qasm text → parse → dump → parse round trip lands
//! on the same key.
//!
//! Circuits and topologies feed their memoized content keys
//! ([`Circuit::content_key`], [`Topology::content_key`]) rather than
//! their contents, so a circuit is streamed at most once between two
//! mutations and a topology once in its lifetime, however many cache
//! lookups carry it.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use xtalk_device::{Calibration, CrosstalkMap, Edge, Topology};
use xtalk_ir::{Circuit, Clbit, Qubit, ScheduleSlot, ScheduledCircuit};

pub use xtalk_ir::Fnv1a;

/// Structural hash of an artifact's content.
///
/// Implementations must satisfy: `a == b` (structurally) implies equal
/// hashes, independent of how the value was produced (parsed, built,
/// cloned, re-serialized).
pub trait ContentHash {
    /// Feeds the value's content into `h`.
    fn content_hash(&self, h: &mut Fnv1a);

    /// Convenience: hashes the value standalone.
    fn hash_value(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.content_hash(&mut h);
        h.finish()
    }
}

macro_rules! impl_via {
    ($t:ty, $self:ident, $h:ident, $body:expr) => {
        impl ContentHash for $t {
            fn content_hash(&$self, $h: &mut Fnv1a) {
                $body
            }
        }
    };
}

impl_via!(u8, self, h, h.write_u8(*self));
impl_via!(u32, self, h, h.write_u32(*self));
impl_via!(u64, self, h, h.write_u64(*self));
impl_via!(usize, self, h, h.write_usize(*self));
impl_via!(i64, self, h, h.write_u64(*self as u64));
impl_via!(f64, self, h, h.write_f64(*self));
impl_via!(bool, self, h, h.write_u8(u8::from(*self)));
impl_via!(str, self, h, h.write_str(self));
impl_via!(String, self, h, h.write_str(self));

impl<T: ContentHash + ?Sized> ContentHash for &T {
    fn content_hash(&self, h: &mut Fnv1a) {
        (**self).content_hash(h);
    }
}

impl<T: ContentHash> ContentHash for Option<T> {
    fn content_hash(&self, h: &mut Fnv1a) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.content_hash(h);
            }
        }
    }
}

impl<T: ContentHash> ContentHash for [T] {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for v in self {
            v.content_hash(h);
        }
    }
}

impl<T: ContentHash> ContentHash for Vec<T> {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.as_slice().content_hash(h);
    }
}

impl<A: ContentHash, B: ContentHash> ContentHash for (A, B) {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.0.content_hash(h);
        self.1.content_hash(h);
    }
}

impl<A: ContentHash, B: ContentHash, C: ContentHash> ContentHash for (A, B, C) {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.0.content_hash(h);
        self.1.content_hash(h);
        self.2.content_hash(h);
    }
}

impl ContentHash for Qubit {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u32(self.raw());
    }
}

impl ContentHash for Clbit {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u32(self.raw());
    }
}

impl ContentHash for Circuit {
    /// Counts each stream of a circuit into its memoized key under the obs
    /// counter `pass.hash.circuit_streams`.
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.content_key_with(|| xtalk_obs::counter!("pass.hash.circuit_streams")));
    }
}

impl ContentHash for ScheduleSlot {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.start);
        h.write_u64(self.duration);
    }
}

impl ContentHash for ScheduledCircuit {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.circuit().content_hash(h);
        self.slots().content_hash(h);
    }
}

impl ContentHash for Edge {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u32(self.lo());
        h.write_u32(self.hi());
    }
}

impl ContentHash for Topology {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.content_key());
    }
}

impl ContentHash for Calibration {
    fn content_hash(&self, h: &mut Fnv1a) {
        let d = self.durations();
        h.write_u64(d.sq_pulse_ns);
        h.write_u64(d.measure_ns);
        let n = self.num_qubits();
        h.write_usize(n);
        for q in 0..n as u32 {
            h.write_f64(self.sq_error(q));
            h.write_f64(self.readout_error(q));
            h.write_f64(self.t1_us(q));
            h.write_f64(self.t2_us(q));
        }
        for e in self.cx_edges() {
            e.content_hash(h);
            h.write_f64(self.cx_error(e));
            h.write_u64(self.cx_duration(e));
        }
    }
}

impl ContentHash for CrosstalkMap {
    /// Every `(affected, aggressor, factor)` entry, in the map's order.
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for ((affected, aggressor), factor) in self.iter() {
            affected.content_hash(h);
            aggressor.content_hash(h);
            h.write_f64(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_ir::{Gate, Instruction};

    #[test]
    fn crosstalk_hash_tracks_every_entry() {
        let (a, b, c) = (Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5));
        let mut map = CrosstalkMap::new();
        map.set_symmetric(a, b, 3.0, 2.0);
        let base = map.hash_value();
        assert_eq!(base, map.clone().hash_value());
        let mut other = map.clone();
        other.set(a, b, 3.5);
        assert_ne!(other.hash_value(), base, "a factor moved");
        let mut other = map.clone();
        other.set(c, b, 3.0);
        assert_ne!(other.hash_value(), base, "an entry was added");
        assert_ne!(CrosstalkMap::new().hash_value(), base);
    }

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = Fnv1a::new();
        ("ab".to_string(), "c".to_string()).content_hash(&mut a);
        let mut b = Fnv1a::new();
        ("a".to_string(), "bc".to_string()).content_hash(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn circuit_hash_tracks_structure() {
        let mut a = Circuit::new(2, 0);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2, 0);
        b.h(0).cx(0, 1);
        assert_eq!(a.hash_value(), b.hash_value());
        b.h(1);
        assert_ne!(a.hash_value(), b.hash_value());
    }

    #[test]
    fn gate_params_distinguish() {
        let key = |g: Gate| {
            let mut c = Circuit::new(1, 0);
            c.push(Instruction::single_qubit(g, Qubit::new(0)));
            c.hash_value()
        };
        assert_ne!(key(Gate::U1(0.5)), key(Gate::U1(0.25)));
        assert_ne!(key(Gate::X), key(Gate::Y));
    }

    #[test]
    fn calibration_hash_sensitive_to_drift() {
        let topo = Topology::line(4);
        let cal = Calibration::sample(&topo, &Default::default(), 3);
        assert_eq!(cal.hash_value(), cal.clone().hash_value());
        assert_ne!(cal.hash_value(), cal.drifted(9).hash_value());
    }
}
