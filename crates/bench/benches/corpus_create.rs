//! Tentpole perf numbers — the incremental build cache and the parallel
//! evaluation driver.
//!
//! Three headline measurements, all written to BENCH_corpus_create.json
//! alongside the build-cache counters:
//!
//! 1. `eval_serial_ms` / `eval_parallel_ms` — wall-clock of the full
//!    64-CVE evaluation (the tests/full_corpus.rs path) with jobs=1 and
//!    jobs=available_parallelism.
//! 2. `create_cold_ms` / `create_warm_ms` — sweeping `create_update`
//!    over the whole corpus with a cold cache per CVE vs one shared
//!    cache (the base tree compiles once, only patched units recompile).
//!
//! Criterion then times a single warm-cache create for the per-update
//! latency figure.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use ksplice_core::{create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions, Tracer};
use ksplice_eval::{base_tree, corpus, default_eval_jobs, run_full_evaluation};

const STRESS_ROUNDS: u64 = 2;

fn eval_wall_ms(jobs: usize) -> u128 {
    let t = Instant::now();
    run_full_evaluation(
        STRESS_ROUNDS,
        jobs,
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
    .expect("evaluation failed");
    t.elapsed().as_millis()
}

fn create_sweep_ms(shared_cache: bool, tracer: &mut Tracer) -> u128 {
    let base = base_tree();
    let shared = BuildCache::new();
    let t = Instant::now();
    for case in corpus() {
        let fresh;
        let cache = if shared_cache {
            &shared
        } else {
            fresh = BuildCache::new();
            &fresh
        };
        let opts = CreateOptions {
            accept_data_changes: case.needs_custom_code(),
            ..CreateOptions::default()
        };
        let patch = if case.needs_custom_code() {
            case.full_patch_text()
        } else {
            case.patch_text()
        };
        create_update_cached_traced(case.id, &base, &patch, &opts, cache, tracer)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
    }
    t.elapsed().as_millis()
}

fn bench(c: &mut Criterion) {
    let jobs = default_eval_jobs();
    let eval_serial_ms = eval_wall_ms(1);
    let eval_parallel_ms = eval_wall_ms(jobs);

    let mut tracer = Tracer::new();
    let create_cold_ms = create_sweep_ms(false, &mut Tracer::disabled());
    let create_warm_ms = create_sweep_ms(true, &mut tracer);
    tracer.count("bench.eval_serial_ms", eval_serial_ms as u64);
    tracer.count("bench.eval_parallel_ms", eval_parallel_ms as u64);
    tracer.count("bench.eval_jobs", jobs as u64);
    tracer.count("bench.create_cold_ms", create_cold_ms as u64);
    tracer.count("bench.create_warm_ms", create_warm_ms as u64);
    println!(
        "\n== full evaluation: {eval_serial_ms} ms serial, {eval_parallel_ms} ms with {jobs} job(s) ==\n\
         == corpus create sweep: {create_cold_ms} ms cold cache, {create_warm_ms} ms shared cache ==\n"
    );
    std::fs::write("BENCH_corpus_create.json", tracer.metrics_json())
        .expect("write BENCH_corpus_create.json");

    // Per-update latency with a hot cache: only the patched units and the
    // pack assembly are on the measured path.
    let base = base_tree();
    let case = corpus().into_iter().next().unwrap();
    let patch = case.patch_text();
    let opts = CreateOptions::default();
    let cache = BuildCache::new();
    create_update_cached_traced(case.id, &base, &patch, &opts, &cache, &mut Tracer::disabled())
        .unwrap();
    c.bench_function("corpus_create/warm_cache_single", |b| {
        b.iter(|| {
            create_update_cached_traced(
                case.id,
                &base,
                &patch,
                &opts,
                &cache,
                &mut Tracer::disabled(),
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
