//! `BENCH_parallel.json` — the worker-pool parallelism baseline.
//!
//! Three measurements, all on the same machine and build:
//!
//! 1. **Dispatch cost** — the same fixed two-way partitioned workload
//!    submitted through the persistent pool (`pool::run_tasks`) versus
//!    the pre-pool model of spawning scoped threads per call. The pool's
//!    whole reason to exist is that worker threads are created once, so
//!    per-call cost is an enqueue + wakeup rather than an OS spawn.
//! 2. **Serial reference** — the identical workload at one thread, where
//!    `run_tasks` takes the inline path (no queue, no locks), pinning
//!    the "1-thread pool == serial" zero-overhead claim.
//! 3. **Training steps** — mean per-step time for the MLP and conv
//!    models at 1 thread (serial) and 2 threads (pooled). On a
//!    single-core host these bracket the pool's coordination overhead;
//!    on a multi-core host the pooled column shows the speedup.
//! 4. **GEMM throughput** — GFLOP/s of the packed-microkernel GEMM on
//!    training-shaped problems, with the AVX2 kernel on and off
//!    (`simd::set_simd`). Both columns compute bit-identical results
//!    (the conformance suite pins that); the ratio is the price of the
//!    scalar fallback.
//!
//! ```text
//! cargo run --release -p dropback-bench --bin bench_parallel
//! ```
//!
//! Timing goes through `dropback_telemetry::Stopwatch`, the workspace's
//! only sanctioned clock (see docs/LINTS.md, `wall-clock`). How to read
//! the output: docs/PERFORMANCE.md.

use dropback::prelude::*;
use dropback_bench::{banner, env_usize};
use dropback_telemetry::Stopwatch;
use dropback_tensor::{matmul, pool, simd, Tensor};
use std::hint::black_box;
use std::io::Write;

/// Deterministic arithmetic-only task body; `iters` sets the grain.
fn burn(part: usize, iters: usize) -> f32 {
    let mut acc = part as f32 * 0.001 + 1.0;
    for i in 0..iters {
        acc = acc.mul_add(1.000_000_1, (i & 7) as f32 * 1e-7);
    }
    acc
}

/// Runs `parts` disjoint-write tasks through the persistent pool.
fn run_via_pool(out: &mut [f32], iters: usize) {
    let tasks: Vec<pool::Task<'_>> = out
        .chunks_mut(1)
        .enumerate()
        .map(|(i, slot)| Box::new(move || slot[0] = black_box(burn(i, iters))) as pool::Task<'_>)
        .collect();
    pool::run_tasks(tasks);
}

/// The pre-pool dispatch model: a scoped OS thread per task, per call.
fn run_via_spawn(out: &mut [f32], iters: usize) {
    std::thread::scope(|s| {
        for (i, slot) in out.chunks_mut(1).enumerate() {
            s.spawn(move || slot[0] = black_box(burn(i, iters)));
        }
    });
}

/// Mean microseconds per repetition of one dispatch strategy.
fn time_dispatch(parts: usize, iters: usize, reps: usize, f: impl Fn(&mut [f32], usize)) -> f64 {
    let mut out = vec![0.0f32; parts];
    // Warm up allocators, the pool queue, and the branch predictor.
    for _ in 0..reps / 10 + 1 {
        f(&mut out, iters);
    }
    let sw = Stopwatch::started();
    for _ in 0..reps {
        f(&mut out, iters);
    }
    let ns = sw.elapsed_ns().unwrap_or(0);
    black_box(&out);
    ns as f64 / reps as f64 / 1_000.0
}

/// Mean milliseconds per training step at the current pool size.
fn time_steps(mut net: Network, mut opt: impl Optimizer, train: &Dataset, steps: usize) -> f64 {
    let batcher = Batcher::new(64.min(train.len()), 99);
    let mut done = 0usize;
    let mut sw = Stopwatch::started_if(false);
    'outer: for epoch in 0..u64::MAX {
        for (x, labels) in batcher.epoch(train, epoch) {
            if done == steps {
                // Untimed warmup steps are over; start the clock.
                sw = Stopwatch::started();
            }
            let (loss, _acc) = net.loss_backward(&x, &labels);
            black_box(loss);
            opt.step(net.store_mut(), 0.1);
            net.store_mut().zero_grads();
            done += 1;
            if done == 2 * steps {
                break 'outer;
            }
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    sw.elapsed_ns().unwrap_or(0) as f64 / steps as f64 / 1_000_000.0
}

/// Mean GFLOP/s of the packed GEMM on one m×k×n problem shape at the
/// current kernel selection and pool size.
fn time_gemm(m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let a = Tensor::from_vec(
        vec![m, k],
        (0..m * k).map(|i| (i % 97) as f32 * 0.013).collect(),
    );
    let b = Tensor::from_vec(
        vec![k, n],
        (0..k * n).map(|i| (i % 89) as f32 * 0.017).collect(),
    );
    for _ in 0..reps / 10 + 1 {
        black_box(matmul(&a, &b));
    }
    let sw = Stopwatch::started();
    for _ in 0..reps {
        black_box(matmul(&a, &b));
    }
    let ns = sw.elapsed_ns().unwrap_or(0).max(1);
    // flops / ns == 1e9 flops / s == GFLOP/s.
    (2 * m * k * n * reps) as f64 / ns as f64
}

fn main() {
    banner(
        "BENCH parallel",
        "persistent worker pool vs spawn-per-call and serial",
    );
    let reps = env_usize("DROPBACK_BENCH_REPS", 300);
    let steps = env_usize("DROPBACK_BENCH_STEPS", 10);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Dispatch: 2 tasks per call mirrors the pool's own worker count.
    let parts = 2usize;
    let small_iters = 2_000; // dispatch-dominated grain
    let large_iters = 200_000; // compute-dominated grain

    pool::set_threads(1);
    let small_serial = time_dispatch(parts, small_iters, reps, run_via_pool);
    let large_serial = time_dispatch(parts, large_iters, reps / 4 + 1, run_via_pool);

    pool::set_threads(2);
    let small_pool = time_dispatch(parts, small_iters, reps, run_via_pool);
    let large_pool = time_dispatch(parts, large_iters, reps / 4 + 1, run_via_pool);
    let small_spawn = time_dispatch(parts, small_iters, reps, run_via_spawn);
    let large_spawn = time_dispatch(parts, large_iters, reps / 4 + 1, run_via_spawn);

    println!("dispatch (2 tasks/call, mean us/call over {reps} calls):");
    println!("  grain    serial@1   pool@2     spawn@2    pool-vs-spawn");
    println!(
        "  small    {small_serial:<10.2} {small_pool:<10.2} {small_spawn:<10.2} {:.2}x",
        small_spawn / small_pool.max(1e-9)
    );
    println!(
        "  large    {large_serial:<10.2} {large_pool:<10.2} {large_spawn:<10.2} {:.2}x",
        large_spawn / large_pool.max(1e-9)
    );

    // Training steps: the real hot path end to end.
    let (mnist, _) = synthetic_mnist(512, 64, 7);
    let (cifar, _) = synthetic_cifar(96, 16, models::CIFAR_NANO_HW, models::CIFAR_NANO_HW, 11);
    let mlp = |steps| {
        time_steps(
            models::mnist_100_100(7),
            DropBack::new(9_000),
            &mnist,
            steps,
        )
    };
    let conv = |steps| time_steps(models::vgg_s_nano(11), DropBack::new(4_000), &cifar, steps);
    pool::set_threads(1);
    let mlp_serial = mlp(steps);
    let conv_serial = conv(steps.div_ceil(2));
    pool::set_threads(2);
    let mlp_pooled = mlp(steps);
    let conv_pooled = conv(steps.div_ceil(2));
    pool::set_threads(1);

    println!("\ntraining steps (mean ms/step over {steps} timed steps):");
    println!("  model             serial@1   pooled@2");
    println!("  mnist-100-100     {mlp_serial:<10.2} {mlp_pooled:<10.2}");
    println!("  vgg-s-nano        {conv_serial:<10.2} {conv_pooled:<10.2}");
    println!("\nhost parallelism: {host} (pooled wins need >1 core; on 1 core the");
    println!("pooled column measures coordination overhead, the dispatch table");
    println!("measures the pool's gain over the old spawn-per-call model)");

    // GEMM throughput: the packed microkernel with the SIMD kernel on and
    // off. Shapes mirror the traced training workload (mnist layer GEMMs)
    // plus one square blocked case that spans every MC/KC/NC boundary.
    let gemm_shapes: [(usize, usize, usize); 3] = [(64, 784, 100), (64, 100, 100), (256, 256, 256)];
    let gemm_reps = reps / 6 + 1;
    let was_simd = simd::simd_active();
    let mut gemm_rows = Vec::new();
    for &(m, k, n) in &gemm_shapes {
        let avx2 = simd::set_simd(true); // false = no AVX2 host, stays scalar
        let simd_gflops = time_gemm(m, k, n, gemm_reps);
        simd::set_simd(false);
        let scalar_gflops = time_gemm(m, k, n, gemm_reps);
        gemm_rows.push((m, k, n, avx2, simd_gflops, scalar_gflops));
    }
    simd::set_simd(was_simd);

    println!("\npacked GEMM throughput (GFLOP/s, mean over {gemm_reps} calls):");
    println!("  m     k     n     simd       scalar     simd-vs-scalar");
    for &(m, k, n, avx2, s, sc) in &gemm_rows {
        let tag = if avx2 {
            ""
        } else {
            "  (no AVX2: simd column is scalar)"
        };
        println!(
            "  {m:<5} {k:<5} {n:<5} {s:<10.2} {sc:<10.2} {:.2}x{tag}",
            s / sc.max(1e-9)
        );
    }

    let gemm_json = gemm_rows
        .iter()
        .map(|&(m, k, n, _, s, sc)| {
            format!(
                "{{\"m\":{m},\"k\":{k},\"n\":{n},\"simd_gflops\":{s:.3},\
                 \"scalar_gflops\":{sc:.3},\"simd_speedup\":{:.3}}}",
                s / sc.max(1e-9)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        concat!(
            "{{\"host_parallelism\":{},",
            "\"dispatch\":{{\"tasks_per_call\":{},\"calls\":{},",
            "\"small_grain\":{{\"iters\":{},\"serial_us\":{:.3},\"pool_us\":{:.3},",
            "\"spawn_us\":{:.3},\"pool_speedup_vs_spawn\":{:.3}}},",
            "\"large_grain\":{{\"iters\":{},\"serial_us\":{:.3},\"pool_us\":{:.3},",
            "\"spawn_us\":{:.3},\"pool_speedup_vs_spawn\":{:.3}}}}},",
            "\"steps\":{{\"timed_steps\":{},",
            "\"mnist_100_100\":{{\"serial_ms\":{:.3},\"pooled_ms\":{:.3}}},",
            "\"vgg_s_nano\":{{\"serial_ms\":{:.3},\"pooled_ms\":{:.3}}}}},",
            "\"gemm\":{{\"calls\":{},\"avx2\":{},\"shapes\":[{}]}}}}\n",
        ),
        host,
        parts,
        reps,
        small_iters,
        small_serial,
        small_pool,
        small_spawn,
        small_spawn / small_pool.max(1e-9),
        large_iters,
        large_serial,
        large_pool,
        large_spawn,
        large_spawn / large_pool.max(1e-9),
        steps,
        mlp_serial,
        mlp_pooled,
        conv_serial,
        conv_pooled,
        gemm_reps,
        gemm_rows.iter().all(|r| r.3),
        gemm_json,
    );
    let path = "BENCH_parallel.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
