//! Host-speed calibration.
//!
//! The simulator is deterministic, so repetitions differ only by host
//! noise. On a shared machine that noise comes in phases of tens of
//! seconds in which everything runs 1.3–1.5x slower, and a whole 20 s
//! run can fall inside one: on a shared 2-vCPU Intel Xeon VM, ten 20 s
//! kci-module-churn runs gave raw ns/op quartiles 35% of the median
//! apart. So a fixed loop owned by the benchmark is timed between
//! repetitions, and every host time is reported in *reference
//! nanoseconds*: the measured time divided by the host's *slowdown*, the
//! loop's time over its time on the reference host (the VM above,
//! outside slow phases), averaged just before and just after that
//! repetition. The loop is not program code, so a change to the program
//! moves the figure and a change in machine speed mostly does not.
//!
//! Workloads slow down differently, so two loops are kept. The closed
//! loops track the table loop. fleet-http tracks the heap loop better:
//! in three stretches of four to ten minutes of 30k-request fleets on the
//! same VM, cut into 20 s windows, the windows' medians spread 10–24%
//! (quartiles over median) raw, 5–12% scaled by the table loop and 5–8%
//! scaled by the heap loop. A pure register loop and memory-latency
//! pointer chases hardly tracked it at all.

use std::collections::BTreeMap;
use std::time::Instant;

const TABLE_LEN: usize = 1 << 19;
const TABLE_STEPS: u64 = 400_000;
const HEAP_ENTRIES: u64 = 20_000;
const HEAP_VALUE_LEN: usize = 40;

/// Which fixed loop a [`Bracket`] times.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Random read-modify-writes over a 4 MiB table, so caches and memory
    /// are loaded the way the simulator's own working set loads them.
    Table,
    /// An ordered map of 20,000 small heap buffers built and dropped:
    /// allocator work and pointer chasing, as in a fleet shard's
    /// per-request bookkeeping.
    Heap,
}

impl Loop {
    /// The loop's time on the reference host. The heap loop's is set so
    /// that both loops read the same slowdown there.
    fn ref_ns(self) -> f64 {
        match self {
            Loop::Table => 2.0e6,
            Loop::Heap => 2.7e6,
        }
    }
}

/// Times the calibration loop around a sequence of repetitions.
pub struct Bracket {
    kind: Loop,
    table: Vec<u64>,
    before: f64,
    /// Every slowdown taken: 1.0 is the reference host's speed.
    pub slowdowns: Vec<f64>,
}

impl Bracket {
    /// Starts the sequence with one calibration pass.
    pub fn new(kind: Loop) -> Self {
        let table = match kind {
            Loop::Table => vec![1; TABLE_LEN],
            Loop::Heap => Vec::new(),
        };
        let mut b = Bracket { kind, table, before: 0.0, slowdowns: Vec::new() };
        b.before = b.slowdown();
        b
    }

    fn slowdown(&mut self) -> f64 {
        let ns = match self.kind {
            Loop::Table => {
                let t = Instant::now();
                self.table_pass();
                t.elapsed().as_nanos() as f64
            }
            Loop::Heap => heap_ns(),
        };
        let s = ns / self.kind.ref_ns();
        self.slowdowns.push(s);
        s
    }

    /// Driven by a xorshift generator.
    fn table_pass(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for i in 0..TABLE_STEPS {
            x = xorshift(x);
            let idx = (x as usize) & (TABLE_LEN - 1);
            acc = acc.wrapping_add(self.table[idx]).rotate_left(5);
            self.table[idx] = acc ^ i;
        }
        std::hint::black_box(acc);
    }

    /// Call after each repetition: the factor that turns that
    /// repetition's host ns into reference ns.
    pub fn scale(&mut self) -> f64 {
        let after = self.slowdown();
        let scale = 2.0 / (self.before + after);
        self.before = after;
        scale
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The heap loop's host ns. It runs on a thread of its own, so it
/// allocates from an arena no program code touches and does the same
/// work every time, whatever state the program left its heap in.
fn heap_ns() -> f64 {
    std::thread::spawn(|| {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..HEAP_ENTRIES {
            x = xorshift(x);
            map.insert(x, vec![i as u8; HEAP_VALUE_LEN]);
        }
        std::hint::black_box(&map);
        drop(map);
        t.elapsed().as_nanos() as f64
    })
    .join()
    .expect("heap loop")
}
