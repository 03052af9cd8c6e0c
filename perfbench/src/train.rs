//! `train_paper200`: the paper's optics trained with the Ours-D
//! regularizers through the in-process shard pool, plus the layer-by-layer
//! step replay both training workloads use for their per-layer numbers.

use crate::layers::{hop_bytes, hop_flops, ms_since, Window};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::RunArgs;
use photonn_autodiff::{Adam, MaskGrads, Tape};
use photonn_datasets::{BatchIter, Dataset, Family};
use photonn_dist::{all_reduce, shard_batch, sharded_gradients, train_with_sharded, DistConfig};
use photonn_donn::pipeline::ExperimentConfig;
use photonn_donn::train::{batched_gradients, Regularization, TrainOptions};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};
use std::time::Instant;

/// Training samples per episode: two optimizer steps of batch 50.
const SAMPLES: usize = 100;
/// Mini-batch size.
const BATCH: usize = 50;
/// Shard workers of the in-process pool (1 FFT thread each).
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median. The first one builds what
/// the run uses; the others are timed between episodes, spread over the
/// run so that a host disturbance of a few seconds moves a minority of
/// them.
const SETUPS: usize = 5;

/// Everything one episode starts from.
struct Setup {
    init: Donn,
    data: Dataset,
    opts: TrainOptions,
    dist: DistConfig,
}

fn build(seed: u64) -> Setup {
    let init = Donn::random(DonnConfig::paper(), &mut Rng::seed_from(seed));
    let data = Dataset::synthetic(Family::Mnist, SAMPLES, seed).resized(init.config().grid());
    // The paper's MNIST hyperparameters with the Ours-D regularizers.
    let paper = ExperimentConfig::paper(Family::Mnist);
    let opts = TrainOptions {
        epochs: 1,
        batch_size: BATCH,
        learning_rate: paper.baseline_lr,
        seed: seed ^ 0x7a11,
        regularization: Regularization::with_intra(paper.p, paper.q, paper.slr.block),
        lr_final_fraction: 1.0,
        ..TrainOptions::default()
    };
    Setup {
        init,
        data,
        opts,
        dist: DistConfig::in_process(WORKERS),
    }
}

/// Order-sensitive hash of every mask bit.
pub fn mask_hash(masks: &[Grid]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in masks {
        for v in m.as_slice() {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `true` when both mask sets have identical shapes and bits.
pub fn same_bits(a: &[Grid], b: &[Grid]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One episode through the public sharded trainer; returns the trained
/// model and its wall time in ms.
fn episode(s: &Setup) -> Result<(Donn, f64), String> {
    let mut donn = s.init.clone();
    let t = Instant::now();
    train_with_sharded(&mut donn, &s.data, &s.opts, None, None, &s.dist, None)
        .map_err(|e| e.to_string())?;
    Ok((donn, ms_since(t)))
}

fn steps_per_episode() -> usize {
    SAMPLES.div_ceil(BATCH)
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) {
    let t = Instant::now();
    let s = build(args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    check_first_gradient(&s, report);

    // The reference episode: warms every lazy plan and fixes the masks
    // every later episode must reproduce bit for bit.
    let reference = match episode(&s) {
        Ok((donn, _)) => donn,
        Err(e) => {
            report.failed += 1;
            report.attempted += 1;
            report.check("sharded training completes", false, e);
            return;
        }
    };
    let want = mask_hash(reference.masks());
    if args.traced {
        traced(args, &s, &reference, report);
    } else {
        timed(args, &s, want, &mut setup_s, report);
        report.set("setup_s", median(&setup_s));
        report.note(format!("set-ups (s): {setup_s:.4?}"));
    }
}

fn check_first_gradient(s: &Setup, report: &mut Report) {
    let batch = BatchIter::new(s.data.len(), s.opts.batch_size, s.opts.seed)
        .epoch()
        .next()
        .expect("one batch");
    let single = batched_gradients(&s.init, &s.data, &batch, None, 1);
    let detail = match sharded_gradients(&s.init, &s.data, &batch, None, &s.dist) {
        Ok(sharded) => {
            let diff = single
                .0
                .iter()
                .zip(&sharded.0)
                .map(|(a, b)| a.max_abs_diff(b))
                .fold((single.1 - sharded.1).abs(), f64::max);
            Ok(diff)
        }
        Err(e) => Err(e.to_string()),
    };
    match detail {
        Ok(diff) => report.check(
            "first sharded gradient matches the single tape",
            diff <= 1e-12,
            format!("max |Δ| = {diff:e} (limit 1e-12)"),
        ),
        Err(e) => report.check("first sharded gradient matches the single tape", false, e),
    }
}

/// Times episodes for the budget, and the set-ups after the first
/// ([`SETUPS`]) between them.
fn timed(args: &RunArgs, s: &Setup, want: u64, setup_s: &mut Vec<f64>, report: &mut Report) {
    let steps = steps_per_episode();
    let mut step_ms = Vec::new();
    let mut hashes_ok = true;
    let start = Instant::now();
    while step_ms.len() < 2 || start.elapsed() < args.budget {
        report.attempted += steps as u64;
        match episode(s) {
            Ok((donn, ms)) => {
                hashes_ok &= mask_hash(donn.masks()) == want;
                step_ms.push(ms / steps as f64);
                if setup_s.len() < SETUPS {
                    let t = Instant::now();
                    std::hint::black_box(build(args.seed));
                    setup_s.push(t.elapsed().as_secs_f64());
                }
            }
            Err(e) => {
                report.failed += steps as u64;
                report.check("sharded training completes", false, e);
                return;
            }
        }
    }
    report.check(
        "final masks identical across episodes",
        hashes_ok,
        format!("{} episodes, hash {want:016x}", step_ms.len()),
    );
    let p50 = median(&step_ms);
    let (tail_ms, level) = tail(&step_ms);
    let steps_per_s = 1e3 * step_ms.len() as f64 / step_ms.iter().sum::<f64>();
    report.set("op_p50_ms", p50);
    report.set("ops_per_s", steps_per_s);
    report.note(format!(
        "op = one optimizer step (batch {BATCH}, {WORKERS} shard workers), timed per \
         {steps}-step episode; {} episodes; step tail (p{}) {tail_ms} ms; \
         train_samples_per_s = {}",
        step_ms.len(),
        level * 100.0,
        BATCH as f64 * steps_per_s
    ));
}

/// Per-step timings of one replayed step, in ms.
#[derive(Clone, Debug, Default)]
pub struct StepTimes {
    /// Whole step.
    pub wall: f64,
    /// `build_batch_loss_parts` per shard.
    pub forward: Vec<f64>,
    /// `Tape::backward` per shard.
    pub backward: Vec<f64>,
    /// Whole shard (forward, backward and gradient extraction).
    pub shard: Vec<f64>,
    /// Wall time of the shard phase (spawn to join).
    pub shard_phase: f64,
    /// `all_reduce`.
    pub allreduce: f64,
    /// `Regularization::gradient` over every mask.
    pub reg: f64,
    /// `Adam::step`.
    pub adam: f64,
    /// Tape nodes over every shard.
    pub nodes: usize,
}

/// One shard of one step: forward, backward, gradient extraction.
fn shard_step(
    donn: &Donn,
    data: &Dataset,
    shard: &[usize],
    threads: usize,
    denom: usize,
) -> (MaskGrads, [f64; 3], usize) {
    let t0 = Instant::now();
    let images: Vec<&Grid> = shard.iter().map(|&i| data.image(i)).collect();
    let labels: Vec<usize> = shard.iter().map(|&i| data.label(i)).collect();
    let mut tape = Tape::new();
    let parts = donn.build_batch_loss_parts(&mut tape, &images, &labels, None, threads, denom);
    let forward = ms_since(t0);
    let t1 = Instant::now();
    let loss = tape.scalar(parts.loss);
    let g = tape.backward(parts.loss);
    let backward = ms_since(t1);
    let grads = MaskGrads::extract(
        &g,
        &parts.trans_vars,
        donn.config().grid(),
        loss,
        shard.len(),
    );
    (grads, [forward, backward, ms_since(t0)], tape.len())
}

/// Replays one epoch of the trainer's loop layer by layer — the same
/// public calls `train_with_sharded` (and, with one worker, `train`)
/// makes: shard plan → `build_batch_loss_parts` → `Tape::backward` →
/// `all_reduce` → `Regularization::gradient` → `Adam::step`.
pub fn replay_epoch(
    donn: &mut Donn,
    data: &Dataset,
    batches: &mut BatchIter,
    adam: &mut Adam,
    reg: &Regularization,
    workers: usize,
    threads: usize,
) -> Vec<StepTimes> {
    let mut out = Vec::new();
    for batch in batches.epoch() {
        let t = Instant::now();
        let mut st = StepTimes::default();
        let shards = shard_batch(&batch, workers);
        let denom = batch.len();
        let ts = Instant::now();
        let model: &Donn = donn;
        let results: Vec<(MaskGrads, [f64; 3], usize)> = if shards.len() == 1 {
            vec![shard_step(model, data, shards[0], threads, denom)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|&shard| {
                        scope.spawn(move || shard_step(model, data, shard, threads, denom))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay shard panicked"))
                    .collect()
            })
        };
        st.shard_phase = ms_since(ts);
        let mut parts = Vec::with_capacity(results.len());
        for (grads, [f, b, total], nodes) in results {
            parts.push(grads);
            st.forward.push(f);
            st.backward.push(b);
            st.shard.push(total);
            st.nodes += nodes;
        }
        let t_ar = Instant::now();
        let (mut grads, _loss) = all_reduce(parts, donn.masks(), None);
        st.allreduce = ms_since(t_ar);
        let t_reg = Instant::now();
        for (g, mask) in grads.iter_mut().zip(donn.masks()) {
            g.axpy(1.0, &reg.gradient(mask));
        }
        st.reg = ms_since(t_reg);
        let t_adam = Instant::now();
        adam.step(donn.masks_mut(), &grads);
        st.adam = ms_since(t_adam);
        st.wall = ms_since(t);
        out.push(st);
    }
    out
}

/// Per-layer metrics of a traced replay: `steps` holds every replayed
/// step of the traced pass, `window` its trace, `alloc` the counted
/// `(allocations, bytes)`, `n` the grid and `hop_samples` the samples
/// pushed through each recorded hop span.
pub fn layer_metrics(
    report: &mut Report,
    steps: &[StepTimes],
    window: &Window,
    alloc: (u64, u64),
    n: usize,
    hop_samples: f64,
) {
    let count = steps.len().max(1) as f64;
    let per_step = |f: &dyn Fn(&StepTimes) -> f64| steps.iter().map(f).sum::<f64>() / count;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);

    let hops = window.outer_hops() as f64;
    report.set("fft.hop_ms", window.hop_ms() / count);
    report.set(
        "fft.column_passes",
        window.named("fft.column_pass").len() as f64 / count,
    );
    report.set("fft.flops", hops * hop_samples * hop_flops(n) / count);
    report.set("fft.bytes", hops * hop_samples * hop_bytes(n) / count);
    report.set("tape.forward_ms", per_step(&|s| sum(&s.forward)));
    report.set("tape.backward_ms", per_step(&|s| sum(&s.backward)));
    report.set(
        "tape.other_ms",
        (window.self_ms_without_hops("tape.forward")
            + window.self_ms_without_hops("tape.backward"))
            / count,
    );
    report.set("tape.nodes", per_step(&|s| s.nodes as f64));
    report.set(
        "simd.intensity_calls",
        window.counter("simd.intensity") as f64 / count,
    );
    report.set("alloc.count", alloc.0 as f64 / count);
    report.set("alloc.bytes", alloc.1 as f64 / count);
    report.set("train.reg_ms", per_step(&|s| s.reg));
    report.set("train.adam_ms", per_step(&|s| s.adam));
    report.set("dist.shard_ms.max", per_step(&|s| max(&s.shard)));
    report.set("dist.shard_ms.min", per_step(&|s| min(&s.shard)));
    report.set("dist.allreduce_ms", per_step(&|s| s.allreduce));
    report.set(
        "dist.efficiency",
        per_step(&|s| sum(&s.shard) / (s.shard.len() as f64 * s.shard_phase)),
    );
}

/// Wall-time share of a replayed step that the timed layer calls cover:
/// the slowest shard, the all-reduce, the regularizer and Adam.
pub fn attributed(steps: &[StepTimes]) -> f64 {
    let covered: f64 = steps
        .iter()
        .map(|s| s.shard.iter().copied().fold(0.0, f64::max) + s.allreduce + s.reg + s.adam)
        .sum();
    let wall: f64 = steps.iter().map(|s| s.wall).sum();
    covered / wall
}

/// Step-time order statistics of untraced replayed steps.
pub fn step_stats(report: &mut Report, steps: &[StepTimes]) {
    let walls: Vec<f64> = steps.iter().map(|s| s.wall).collect();
    report.set("step.ms.p50", median(&walls));
    report.set("step.ms.tail", tail(&walls).0);
}

/// Replays a whole episode of `s` layer by layer; returns the model and
/// its per-step timings.
fn replay_episode(s: &Setup) -> (Donn, Vec<StepTimes>) {
    let mut donn = s.init.clone();
    let mut batches = BatchIter::new(s.data.len(), s.opts.batch_size, s.opts.seed);
    let mut adam = Adam::new(s.opts.learning_rate);
    let steps = replay_epoch(
        &mut donn,
        &s.data,
        &mut batches,
        &mut adam,
        &s.opts.regularization,
        s.dist.workers,
        1,
    );
    (donn, steps)
}

fn traced(args: &RunArgs, s: &Setup, reference: &Donn, report: &mut Report) {
    let want = reference.masks();
    let mut plain_steps = Vec::new();
    let mut traced_steps = Vec::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut faithful = true;
    let start = Instant::now();
    let mut window = None;
    let mut alloc_counted = (0, 0);
    while traced_steps.is_empty() || start.elapsed() < args.budget {
        let t = Instant::now();
        let (donn, steps) = replay_episode(s);
        plain_ms += ms_since(t);
        faithful &= same_bits(donn.masks(), want);
        plain_steps.extend(steps);

        Window::start();
        photonn_trace::set_enabled(true);
        let before = crate::alloc::snapshot();
        crate::alloc::enable(true);
        let t = Instant::now();
        let (donn, steps) = replay_episode(s);
        traced_ms += ms_since(t);
        crate::alloc::enable(false);
        photonn_trace::set_enabled(false);
        let after = crate::alloc::snapshot();
        alloc_counted = (after.0 - before.0, after.1 - before.1);
        window = Some(Window::collect());
        faithful &= same_bits(donn.masks(), want);
        traced_steps = steps;
        report.attempted += 2 * steps_per_episode() as u64;
    }
    report.check(
        "layer replay reproduces train_with_sharded masks bit for bit",
        faithful,
        "untraced and traced replays against the reference episode",
    );
    let window = window.expect("one traced pass");
    let n = s.init.config().grid();
    // Each hop span covers one shard's field stack.
    let hop_samples = BATCH as f64 / WORKERS as f64;
    layer_metrics(
        report,
        &traced_steps,
        &window,
        alloc_counted,
        n,
        hop_samples,
    );
    step_stats(report, &plain_steps);
    report.set("attributed_fraction", attributed(&traced_steps));
    // Both sides replayed the same number of episodes.
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
    );
}
