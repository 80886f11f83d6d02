//! Capacity-tracked memory pools for the GPU/CPU/SSD tiers.

use crate::{DeviceError, IntBuildHasher, Result};
use std::collections::HashMap;

/// A storage tier in the paper's memory hierarchy (Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Tier {
    /// GPU high-bandwidth memory (80 GB on the paper's A100).
    Hbm,
    /// Host CPU DRAM (1.8 TB on the paper's EPYC host).
    Ddr,
    /// NVMe SSD (effectively unbounded capacity, low bandwidth).
    Ssd,
}

impl Tier {
    /// All tiers, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Hbm, Tier::Ddr, Tier::Ssd];
}

/// Handle to a live allocation in a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(u64);

/// A single memory tier with capacity, live-byte and peak-byte accounting.
///
/// Peak tracking is the measurement behind Fig 12 (peak GPU memory usage) and
/// the OOM behaviour behind the Switch-Large results of Figs 10–11.
///
/// # Example
///
/// ```
/// use pgmoe_device::{MemoryPool, Tier};
///
/// let mut hbm = MemoryPool::new(Tier::Hbm, 1024);
/// let a = hbm.alloc(512)?;
/// let b = hbm.alloc(512)?;
/// assert!(hbm.alloc(1).is_err()); // full
/// hbm.free(a)?;
/// hbm.free(b)?;
/// assert_eq!(hbm.peak_bytes(), 1024);
/// # Ok::<(), pgmoe_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryPool {
    tier: Tier,
    capacity: u64,
    used: u64,
    peak: u64,
    next_id: u64,
    live: HashMap<u64, u64, IntBuildHasher>,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes on `tier`.
    pub fn new(tier: Tier, capacity: u64) -> Self {
        MemoryPool { tier, capacity, used: 0, peak: 0, next_id: 0, live: HashMap::default() }
    }

    /// The pool's tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of allocated bytes since construction (or the last
    /// [`MemoryPool::reset_peak`]).
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    /// Resets the peak statistic to the current usage.
    pub fn reset_peak(&mut self) {
        self.peak = self.used;
    }

    /// Allocates `bytes`, returning a handle.
    ///
    /// Zero-byte allocations are valid and return a distinct handle.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] if the pool cannot fit the
    /// request.
    pub fn alloc(&mut self, bytes: u64) -> Result<AllocId> {
        if self.used + bytes > self.capacity {
            return Err(DeviceError::OutOfMemory {
                tier: self.tier,
                requested: bytes,
                available: self.available_bytes(),
                capacity: self.capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, bytes);
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(AllocId(id))
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownAllocation`] on double-free or foreign
    /// handles.
    pub fn free(&mut self, id: AllocId) -> Result<()> {
        match self.live.remove(&id.0) {
            Some(bytes) => {
                self.used -= bytes;
                Ok(())
            }
            None => Err(DeviceError::UnknownAllocation { id: id.0 }),
        }
    }

    /// Size in bytes of a live allocation, if it exists.
    pub fn size_of(&self, id: AllocId) -> Option<u64> {
        self.live.get(&id.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_restores_capacity() {
        let mut pool = MemoryPool::new(Tier::Ddr, 100);
        let a = pool.alloc(60).unwrap();
        assert_eq!(pool.used_bytes(), 60);
        pool.free(a).unwrap();
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(pool.peak_bytes(), 60);
        let _ = pool.alloc(100).unwrap();
    }

    #[test]
    fn oom_reports_exact_numbers() {
        let mut pool = MemoryPool::new(Tier::Hbm, 100);
        let _keep = pool.alloc(70).unwrap();
        let err = pool.alloc(40).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                tier: Tier::Hbm,
                requested: 40,
                available: 30,
                capacity: 100
            }
        );
    }

    #[test]
    fn double_free_is_an_error() {
        let mut pool = MemoryPool::new(Tier::Ssd, 10);
        let a = pool.alloc(5).unwrap();
        pool.free(a).unwrap();
        assert!(matches!(pool.free(a), Err(DeviceError::UnknownAllocation { .. })));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut pool = MemoryPool::new(Tier::Hbm, 100);
        let a = pool.alloc(50).unwrap();
        let b = pool.alloc(30).unwrap();
        pool.free(a).unwrap();
        let _c = pool.alloc(10).unwrap();
        assert_eq!(pool.peak_bytes(), 80);
        pool.free(b).unwrap();
        pool.reset_peak();
        assert_eq!(pool.peak_bytes(), pool.used_bytes());
    }

    #[test]
    fn zero_byte_alloc_is_fine() {
        let mut pool = MemoryPool::new(Tier::Hbm, 0);
        let a = pool.alloc(0).unwrap();
        pool.free(a).unwrap();
    }
}
