//! [FNV-1a] and the byte layout of gates and instructions under it.
//!
//! [`crate::Circuit::content_key`] streams a circuit through [`Fnv1a`]
//! in this layout once and memoizes the result; the artifact cache of
//! `xtalk-pass` keys every circuit-carrying artifact by that `u64`.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use crate::{Gate, Instruction};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental [FNV-1a] hasher over a byte stream.
///
/// ```
/// use xtalk_ir::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write_str("hello");
/// assert_ne!(h.finish(), Fnv1a::new().finish());
/// ```
///
/// [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64` so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern (exact, no rounding).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Gate {
    /// Feeds the gate into `h`: its mnemonic (unique per variant), then
    /// its parameters by bit pattern.
    pub(crate) fn hash_into(&self, h: &mut Fnv1a) {
        h.write_str(self.name());
        for p in self.params() {
            h.write_f64(p);
        }
    }
}

impl Instruction {
    /// Feeds the instruction into `h`: gate, length-prefixed qubits, then
    /// a tagged optional clbit.
    pub(crate) fn hash_into(&self, h: &mut Fnv1a) {
        self.gate().hash_into(h);
        h.write_usize(self.qubits().len());
        for q in self.qubits() {
            h.write_u32(q.raw());
        }
        match self.clbit() {
            None => h.write_u8(0),
            Some(c) => {
                h.write_u8(1);
                h.write_u32(c.raw());
            }
        }
    }
}
