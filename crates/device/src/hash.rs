//! A one-multiply hasher for maps keyed by small integers.
//!
//! The simulator's hottest maps (live allocations, resident experts) are
//! keyed by counters and bounded indices that no outside input chooses, so
//! SipHash's flooding resistance buys nothing there. Keep the default
//! hasher for keys that arrive from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the FxHash step): each integer written costs one
/// rotate, one xor and one multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IntHasher`]-keyed maps.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;
