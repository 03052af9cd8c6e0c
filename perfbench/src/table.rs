//! `table_scaled`: the five paper variants through `run_variant_on` on the
//! scaled MNIST configuration, exactly what the `table2` binary runs.

use crate::layers::{ms_since, Window};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::train::{attributed, layer_metrics, replay_epoch, same_bits, step_stats, StepTimes};
use crate::RunArgs;
use photonn_autodiff::Adam;
use photonn_datasets::{BatchIter, Dataset, Family};
use photonn_donn::pipeline::{run_variant_on, ExperimentConfig, Variant, VariantResult};
use photonn_donn::roughness::r_overall;
use photonn_donn::slr::slr_train;
use photonn_donn::train::{train, train_with, Regularization, TrainOptions};
use photonn_donn::two_pi::{optimize_all, TwoPiStrategy};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The first one builds what
/// the run uses; the others are timed between tables, spread over the run
/// so that a host disturbance of a few seconds moves a minority of them.
const SETUPS: usize = 5;
/// Test images the 2π inference-equivalence check runs.
const EQUIVALENCE_IMAGES: usize = 16;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::scaled(Family::Mnist)
    }
}

/// The model configuration `run_variant_on` builds for `cfg`.
fn donn_config(cfg: &ExperimentConfig) -> DonnConfig {
    if cfg.grid == 200 {
        DonnConfig::paper()
    } else {
        DonnConfig::scaled(cfg.grid)
    }
}

/// The regularizers `run_variant_on` trains `variant` with.
fn regularization(cfg: &ExperimentConfig, variant: Variant) -> Regularization {
    match variant {
        Variant::Baseline | Variant::OursB => Regularization::none(),
        Variant::OursA | Variant::OursC => Regularization {
            roughness_weight: cfg.p,
            roughness: cfg.roughness,
            ..Regularization::none()
        },
        Variant::OursD => Regularization {
            roughness_weight: cfg.p,
            roughness: cfg.roughness,
            intra_weight: cfg.q,
            intra_block: cfg.slr.block,
        },
    }
}

/// The baseline-stage options `run_variant_on` uses.
fn base_opts(cfg: &ExperimentConfig, variant: Variant) -> TrainOptions {
    TrainOptions {
        epochs: cfg.baseline_epochs,
        batch_size: cfg.batch_size,
        learning_rate: cfg.baseline_lr,
        seed: cfg.seed,
        regularization: regularization(cfg, variant),
        lr_final_fraction: 0.05,
        ..TrainOptions::default()
    }
}

fn table(cfg: &ExperimentConfig, train_data: &Dataset, test_data: &Dataset) -> Vec<VariantResult> {
    Variant::all()
        .into_iter()
        .map(|v| run_variant_on(cfg, v, train_data, test_data))
        .collect()
}

fn same_result(a: &VariantResult, b: &VariantResult) -> bool {
    a.variant == b.variant
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.r_before.to_bits() == b.r_before.to_bits()
        && a.r_after.to_bits() == b.r_after.to_bits()
        && a.sparsity.to_bits() == b.sparsity.to_bits()
        && same_bits(&a.masks, &b.masks)
        && same_bits(&a.masks_two_pi, &b.masks_two_pi)
}

fn find(results: &[VariantResult], variant: Variant) -> &VariantResult {
    results
        .iter()
        .find(|r| r.variant == variant)
        .expect("every variant runs")
}

/// `(r_reduction_pct, acc_drop_pct)`: Ours-C's after-2π roughness
/// reduction against the baseline's, and the baseline's accuracy minus
/// Ours-C's, in percentage points.
fn quality(results: &[VariantResult]) -> (f64, f64) {
    let base = find(results, Variant::Baseline);
    let ours_c = find(results, Variant::OursC);
    (
        100.0 * (1.0 - ours_c.r_after / base.r_after),
        100.0 * (base.accuracy - ours_c.accuracy),
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) {
    let cfg = config(args.seed);
    let t = Instant::now();
    let (train_data, test_data) = cfg.datasets();
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let t = Instant::now();
    let first = table(&cfg, &train_data, &test_data);
    let first_ms = ms_since(t);
    report.attempted += 1;
    check_outputs(&cfg, &first, &test_data, report);
    let (r_red, acc_drop) = quality(&first);
    report.note(format!(
        "r_reduction_pct = {r_red} (Ours-C after 2π vs baseline), acc_drop_pct = {acc_drop} \
         (baseline {} vs Ours-C {})",
        100.0 * find(&first, Variant::Baseline).accuracy,
        100.0 * find(&first, Variant::OursC).accuracy
    ));
    if args.traced {
        report.set("quality.r_reduction_pct", r_red);
        report.set("quality.acc_drop_pct", acc_drop);
        // The first table also built every plan; a second, warm untraced
        // table is the reference for the traced replay's overhead.
        let t = Instant::now();
        let warm = table(&cfg, &train_data, &test_data);
        let warm_ms = ms_since(t);
        report.attempted += 1;
        report.check(
            "table outputs identical across runs",
            warm.len() == first.len() && warm.iter().zip(&first).all(|(a, b)| same_result(a, b)),
            "the warm reference table against the first",
        );
        report.note(format!(
            "first (warm-up) table: {first_ms} ms; warm reference table: {warm_ms} ms"
        ));
        traced(&cfg, &train_data, &test_data, &first, warm_ms, report);
    } else {
        // The first table also warmed every plan; it is timed but kept out
        // of the statistics.
        report.note(format!("first (warm-up) table: {first_ms} ms"));
        timed(
            args,
            &cfg,
            &train_data,
            &test_data,
            &first,
            &mut setup_s,
            report,
        );
        report.set("setup_s", median(&setup_s));
        report.note(format!("set-ups (s): {setup_s:.4?}"));
    }
}

fn check_outputs(
    cfg: &ExperimentConfig,
    results: &[VariantResult],
    test_data: &Dataset,
    report: &mut Report,
) {
    let worse: Vec<&str> = results
        .iter()
        .filter(|r| r.r_after > r.r_before)
        .map(|r| r.variant.label())
        .collect();
    report.check(
        "2π never raises roughness",
        worse.is_empty(),
        format!("r_after > r_before for {worse:?}"),
    );
    let n = EQUIVALENCE_IMAGES.min(test_data.len());
    let images: Vec<&Grid> = (0..n).map(|i| test_data.image(i)).collect();
    let mut worst = 0.0_f64;
    for r in results {
        let mut before = Donn::new(donn_config(cfg));
        before.set_masks(r.masks.clone());
        let mut after = Donn::new(donn_config(cfg));
        after.set_masks(r.masks_two_pi.clone());
        let a = before.logits_batch(&images, 1);
        let b = after.logits_batch(&images, 1);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            worst = worst.max((x - y).abs());
        }
    }
    report.check(
        "2π masks are inference-equivalent",
        worst <= 1e-9,
        format!("max |Δ logit| = {worst:e} over {n} test images x 5 variants (limit 1e-9)"),
    );
}

fn timed(
    args: &RunArgs,
    cfg: &ExperimentConfig,
    train_data: &Dataset,
    test_data: &Dataset,
    first: &[VariantResult],
    setup_s: &mut Vec<f64>,
    report: &mut Report,
) {
    let mut table_ms = Vec::new();
    let mut identical = true;
    let start = Instant::now();
    while table_ms.len() < 2 || start.elapsed() < args.budget {
        let t = Instant::now();
        let results = table(cfg, train_data, test_data);
        table_ms.push(ms_since(t));
        report.attempted += 1;
        identical &= results.len() == first.len()
            && results.iter().zip(first).all(|(a, b)| same_result(a, b));
        if setup_s.len() < SETUPS {
            let t = Instant::now();
            std::hint::black_box(cfg.datasets());
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    report.check(
        "table outputs identical across runs",
        identical,
        format!("{} tables against the first", table_ms.len()),
    );
    let p50 = median(&table_ms);
    let (tail_ms, level) = tail(&table_ms);
    report.set("op_p50_ms", p50);
    report.set(
        "ops_per_s",
        1e3 * table_ms.len() as f64 / table_ms.iter().sum::<f64>(),
    );
    report.note(format!(
        "op = one five-variant table; {} tables; tail (p{}) {tail_ms} ms; table_s = {}; \
         tables (ms) {:?}",
        table_ms.len(),
        level * 100.0,
        p50 / 1e3,
        table_ms
    ));
}

/// Stage seconds of one replayed table.
#[derive(Default)]
struct Stages {
    train: f64,
    slr: f64,
    finetune: f64,
    eval: f64,
    two_pi: f64,
    gumbel_iters: f64,
    shifted: f64,
}

/// `run_variant_on`, stage by stage through the same public calls.
/// Returns the result and the masks after the baseline stage.
fn replay_variant(
    cfg: &ExperimentConfig,
    variant: Variant,
    train_data: &Dataset,
    test_data: &Dataset,
    st: &mut Stages,
) -> (VariantResult, Vec<Grid>) {
    let mut rng = Rng::seed_from(cfg.seed);
    let mut donn = Donn::random(donn_config(cfg), &mut rng);
    let base = base_opts(cfg, variant);
    let t = Instant::now();
    train(&mut donn, train_data, &base);
    st.train += t.elapsed().as_secs_f64();
    let after_train = donn.masks().to_vec();

    let mut sparsity = 0.0;
    if variant.sparsifies() {
        let slr_opts = TrainOptions {
            epochs: cfg.sparsify_epochs_per_iter,
            learning_rate: cfg.sparsify_lr,
            seed: cfg.seed ^ 0x51a5,
            lr_final_fraction: 1.0,
            ..base
        };
        let t = Instant::now();
        let outcome = slr_train(&mut donn, train_data, &slr_opts, &cfg.slr);
        st.slr += t.elapsed().as_secs_f64();
        sparsity = outcome.sparsity;
        let ft_opts = TrainOptions {
            epochs: 2,
            ..slr_opts
        };
        let t = Instant::now();
        train_with(&mut donn, train_data, &ft_opts, Some(&outcome.keep), None);
        st.finetune += t.elapsed().as_secs_f64();
    }

    let t = Instant::now();
    let accuracy = donn.accuracy(test_data, cfg.threads);
    st.eval += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let r_before = r_overall(donn.masks(), cfg.roughness);
    let results = optimize_all(donn.masks(), cfg.roughness, &cfg.two_pi);
    let masks_two_pi: Vec<Grid> = results.iter().map(|r| r.mask.clone()).collect();
    let r_after = r_overall(&masks_two_pi, cfg.roughness);
    st.two_pi += t.elapsed().as_secs_f64();
    st.shifted += results.iter().map(|r| r.shifted_pixels as f64).sum::<f64>();
    let per_mask = match cfg.two_pi {
        TwoPiStrategy::Gumbel(p) | TwoPiStrategy::GumbelThenGreedy(p, _) => p.iterations,
        TwoPiStrategy::Greedy { .. } => 0,
    };
    st.gumbel_iters += (per_mask * results.len()) as f64;

    let result = VariantResult {
        variant,
        accuracy,
        r_before,
        r_after,
        masks: donn.masks().to_vec(),
        masks_two_pi,
        sparsity,
    };
    (result, after_train)
}

fn traced(
    cfg: &ExperimentConfig,
    train_data: &Dataset,
    test_data: &Dataset,
    timed_results: &[VariantResult],
    warm_ms: f64,
    report: &mut Report,
) {
    // Stage replay with tracing on, against the timed tables.
    let mut st = Stages::default();
    let mut replayed = Vec::new();
    let mut ours_d_trained = Vec::new();
    photonn_trace::set_enabled(true);
    let t = Instant::now();
    for variant in Variant::all() {
        let (result, after_train) = replay_variant(cfg, variant, train_data, test_data, &mut st);
        if variant == Variant::OursD {
            ours_d_trained = after_train;
        }
        replayed.push(result);
    }
    let replay_ms = ms_since(t);
    photonn_trace::set_enabled(false);
    report.attempted += 1;
    report.check(
        "stage replay reproduces run_variant_on bit for bit",
        replayed
            .iter()
            .zip(timed_results)
            .all(|(a, b)| same_result(a, b)),
        "all five variants: masks, 2π masks, accuracy, roughness, sparsity",
    );
    let stage_s = st.train + st.slr + st.finetune + st.eval + st.two_pi;
    report.set("stage.train_s", st.train);
    report.set("stage.slr_s", st.slr);
    report.set("stage.finetune_s", st.finetune);
    report.set("stage.eval_s", st.eval);
    report.set("stage.two_pi_s", st.two_pi);
    report.set("two_pi.gumbel_iters", st.gumbel_iters);
    report.set("two_pi.shifted_pixels", st.shifted);
    report.set("attributed_fraction", stage_s * 1e3 / replay_ms);
    report.set(
        "trace.overhead_pct",
        100.0 * (replay_ms - warm_ms) / warm_ms,
    );

    // Layer replay of Ours-D's baseline stage: untraced for step times,
    // then traced with allocation counting for the per-layer split.
    let opts = base_opts(cfg, Variant::OursD);
    let (plain, _) = replay_stage(cfg, train_data, &opts, false);
    Window::start();
    let before = crate::alloc::snapshot();
    let (steps, donn) = replay_stage(cfg, train_data, &opts, true);
    let after = crate::alloc::snapshot();
    let window = Window::collect();
    report.check(
        "layer replay reproduces train() bit for bit",
        same_bits(donn.masks(), &ours_d_trained),
        format!("Ours-D baseline stage, {} steps", steps.len()),
    );
    layer_metrics(
        report,
        &steps,
        &window,
        (after.0 - before.0, after.1 - before.1),
        cfg.grid,
        cfg.batch_size as f64,
    );
    step_stats(report, &plain);
    report.note(format!(
        "layer replay attributed fraction (tape, reduce, regularizer, Adam over step wall) = {}",
        attributed(&steps)
    ));
}

/// The baseline stage of `train()` replayed layer by layer with one
/// worker and the trainer's own FFT threads.
fn replay_stage(
    cfg: &ExperimentConfig,
    train_data: &Dataset,
    opts: &TrainOptions,
    traced: bool,
) -> (Vec<StepTimes>, Donn) {
    let mut donn = Donn::random(donn_config(cfg), &mut Rng::seed_from(cfg.seed));
    let mut adam = Adam::new(opts.learning_rate);
    let mut batches = BatchIter::new(train_data.len(), opts.batch_size, opts.seed);
    let mut steps = Vec::new();
    photonn_trace::set_enabled(traced);
    crate::alloc::enable(traced);
    for epoch in 0..opts.epochs {
        if opts.epochs > 1 {
            let t = epoch as f64 / (opts.epochs - 1) as f64;
            adam.set_learning_rate(opts.learning_rate * opts.lr_final_fraction.powf(t));
        }
        steps.extend(replay_epoch(
            &mut donn,
            train_data,
            &mut batches,
            &mut adam,
            &opts.regularization,
            1,
            cfg.threads,
        ));
    }
    crate::alloc::enable(false);
    photonn_trace::set_enabled(false);
    (steps, donn)
}
