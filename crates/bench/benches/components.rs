//! Benches of the substrate components: DES engine throughput, DRAM
//! controller service rate, and buffer flow-control operations.
//! Hand-rolled timing (median of repeated runs) so the bench builds
//! without external crates; run with `cargo bench --bench components`.

use std::hint::black_box;
use std::time::Instant;

use desim::{Engine, Model, Scheduler, SimDelta, SimTime};
use dram::{DramConfig, MemOp, MemRequest, MemorySystem};
use soc::LaneBuffer;

/// Times `f` over `iters` runs and reports the median per-run time.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{name:<28} {:>12.3} ms/iter  ({iters} iters)",
        median as f64 / 1e6
    );
}

struct Chain {
    hops: u32,
}
impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
        if self.hops > 0 {
            self.hops -= 1;
            sched.after(SimDelta::from_ns(5), ());
        }
    }
}

fn bench_engine() {
    bench("desim-100k-events", 20, || {
        let mut eng = Engine::new(Chain { hops: 100_000 });
        eng.scheduler().immediately(());
        eng.run();
        black_box(eng.now());
    });
}

fn bench_dram() {
    bench("dram-4k-requests", 20, || {
        let mut mem = MemorySystem::new(DramConfig::lpddr3_table3());
        for i in 0..4096u64 {
            mem.submit(
                SimTime::ZERO,
                MemRequest::new(i * 1024, 1024, MemOp::Read, i),
            );
        }
        black_box(mem.drain(SimTime::ZERO).len());
    });
}

fn bench_buffer() {
    bench("lane-buffer-1m-ops", 10, || {
        let mut lane = LaneBuffer::new(2048);
        let mut moved = 0u64;
        for _ in 0..1_000_000 {
            if lane.try_reserve(1024) {
                lane.commit(1024);
            } else {
                lane.consume(1024);
            }
            moved += 1024;
        }
        black_box(moved);
    });
}

fn main() {
    bench_engine();
    bench_dram();
    bench_buffer();
}
