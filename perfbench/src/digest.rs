//! FNV-1a digest over the simulated statistics of a round: two rounds
//! (or two builds) that model the same behaviour hash to the same value.

/// 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in one counter.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in a float by its bit pattern (exact, no rounding).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a label.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
