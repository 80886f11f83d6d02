//! Machine-speed calibration for the simulator workloads' host time.
//!
//! On a shared machine the speed a thread gets drifts by a third within
//! seconds. The workloads call [`tick`] at fine-grained points (per request,
//! per scheduler step, per fleet run); every [`SLICE_EVERY`] of wall time
//! it runs a fixed calibration loop — benchmark code, independent of the
//! code under test — and records its on-CPU time. A replay's on-CPU time,
//! less the calibration's, is then scaled by `CALIB_REF_NS / slice time`:
//! the host cost the replay would have had on a machine running the
//! calibration slice in [`CALIB_REF_NS`].

use crate::stats::{median, thread_cpu_ns};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Wall time between calibration slices.
pub const SLICE_EVERY: Duration = Duration::from_millis(20);
/// On-CPU time of one calibration slice on the reference machine, a 2-vCPU
/// 2.1 GHz x86-64 virtual machine (median over runs); calibrated figures are
/// in that machine's microseconds.
pub const CALIB_REF_NS: f64 = 1_450_000.0;
/// Xorshift steps per slice.
const SLICE_STEPS: usize = 100_000;
/// Calibration working set, in `u64`s (256 KiB, a power of two).
const WORKING_SET: usize = 1 << 15;

struct State {
    last_slice: Instant,
    buf: Vec<u64>,
    rng: u64,
    slices: u64,
    slice_ns: u64,
    slice_wall_ns: u64,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        last_slice: Instant::now(),
        buf: vec![0; WORKING_SET],
        rng: 0x9E37_79B9_7F4A_7C15,
        slices: 0,
        slice_ns: 0,
        slice_wall_ns: 0,
    });
}

/// A fixed amount of integer, branch and cache work.
fn slice(s: &mut State) {
    let mut x = s.rng;
    let mask = s.buf.len() - 1;
    for _ in 0..SLICE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        s.buf[i] = s.buf[i].wrapping_add(x) ^ (s.buf[(i + 1) & mask] >> 3);
        if s.buf[i] & 1 == 0 {
            x = x.wrapping_add(s.buf[i]);
        }
    }
    s.rng = std::hint::black_box(x);
}

/// Runs a calibration slice when [`SLICE_EVERY`] has passed since the last.
pub fn tick() {
    STATE.with(|cell| {
        let mut s = cell.borrow_mut();
        if s.last_slice.elapsed() < SLICE_EVERY {
            return;
        }
        let Some(c0) = thread_cpu_ns() else { return };
        let w0 = Instant::now();
        slice(&mut s);
        let c1 = thread_cpu_ns().unwrap_or(c0);
        s.slices += 1;
        s.slice_ns += c1 - c0;
        s.last_slice = Instant::now();
        s.slice_wall_ns += (s.last_slice - w0).as_nanos() as u64;
    });
}

/// Machine slowdown against the reference, measured now: the median of
/// three calibration slices' on-CPU time over [`CALIB_REF_NS`], or `1`
/// where on-CPU time cannot be read.
pub fn slowdown_now() -> f64 {
    STATE.with(|cell| {
        let mut s = cell.borrow_mut();
        let mut ns = Vec::with_capacity(3);
        for _ in 0..3 {
            let Some(c0) = thread_cpu_ns() else { return 1.0 };
            slice(&mut s);
            ns.push(thread_cpu_ns().map_or(0, |c1| c1 - c0) as f64);
        }
        median(&ns) / CALIB_REF_NS
    })
}

/// Wall time this thread has spent in calibration slices, ns; subtracted
/// from a phase's wall time before layers' shares of it are taken.
pub fn slice_wall_ns() -> u64 {
    STATE.with(|cell| cell.borrow().slice_wall_ns)
}

/// A point to measure a replay from.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: Option<u64>,
    slices: u64,
    slice_ns: u64,
}

/// Starts measuring a replay.
pub fn mark() -> Mark {
    tick();
    STATE.with(|cell| {
        let s = cell.borrow();
        Mark { wall: Instant::now(), cpu: thread_cpu_ns(), slices: s.slices, slice_ns: s.slice_ns }
    })
}

/// Host cost since `mark` in calibrated µs per token, and the measured
/// calibration ratio (slice time / reference). Falls back to wall time,
/// unscaled, where on-CPU time is unavailable.
pub fn since(mark: Mark, tokens: usize) -> (f64, f64) {
    tick();
    let (slices, slice_ns) = STATE.with(|cell| {
        let s = cell.borrow();
        (s.slices - mark.slices, s.slice_ns - mark.slice_ns)
    });
    match (mark.cpu, thread_cpu_ns()) {
        (Some(a), Some(b)) if slices > 0 => {
            let work_ns = (b - a).saturating_sub(slice_ns) as f64;
            let ratio = slice_ns as f64 / slices as f64 / CALIB_REF_NS;
            (work_ns / ratio / 1e3 / tokens.max(1) as f64, ratio)
        }
        _ => (mark.wall.elapsed().as_nanos() as f64 / 1e3 / tokens.max(1) as f64, 1.0),
    }
}
