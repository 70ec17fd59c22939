//! VM dispatch throughput — how fast the decode-cached block
//! dispatcher retires instructions, and what the icache does under a
//! live hot-patch.
//!
//! Headline numbers, written to BENCH_vm.json:
//!
//! * `vm_steps_per_sec` — instructions/second running the §6.2 stress
//!   workload on a distro-built kernel.
//! * `vm_block_hit_permille` — share of block dispatches served from
//!   the decode cache (‰) over that run.
//! * `vm_icache_flushes` / `vm_blocks_evicted` — flush sweeps observed
//!   across a create → apply → undo round trip, proving trampoline
//!   writes invalidate cached text like `flush_icache_range` would.
//!
//! Criterion then times one stress round for a stable latency figure.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use ksplice_bench::{pack_for, small_cve};
use ksplice_core::{ApplyOptions, Ksplice, Tracer};
use ksplice_eval::{base_tree, load_stress};
use ksplice_kernel::Kernel;
use ksplice_lang::Options;

/// Stress rounds for the throughput measurement — enough to retire
/// tens of millions of instructions so the figure is steady.
const ROUNDS: u64 = 2_000;

fn bench(c: &mut Criterion) {
    let mut tracer = Tracer::new();
    let base = base_tree();

    // Throughput: the stress workload on a fresh distro kernel.
    let mut kernel = Kernel::boot(&base, &Options::distro()).expect("boot");
    let entry = load_stress(&mut kernel).expect("stress loads");
    let steps0 = kernel.steps;
    let t = Instant::now();
    kernel
        .call_at_limited(entry, &[ROUNDS], u64::MAX)
        .expect("stress runs");
    let wall = t.elapsed();
    let steps = kernel.steps - steps0;
    let per_sec = (steps as u128 * 1_000_000 / wall.as_micros().max(1)) as u64;
    let stats = kernel.vm_stats;
    let dispatches = stats.block_hits + stats.blocks_decoded;
    let hit_permille = (stats.block_hits * 1000).checked_div(dispatches).unwrap_or(0);

    // Icache behavior under a real hot patch: apply + undo a corpus CVE
    // on the same (warm) kernel and watch the flush counters move. Run
    // the function about to be patched once so its entry block is hot
    // in the cache — the trampoline write must evict exactly such
    // blocks.
    let cve = small_cve();
    let (pack, _) = pack_for(&cve);
    for unit in pack.diff.affected() {
        for f in &unit.changed_fns {
            let name = f.strip_prefix(".text.").unwrap_or(f);
            let _ = kernel.call_function_limited(name, &[1, 1, 1], 100_000);
        }
    }
    let flushes0 = kernel.vm_stats.icache_flushes;
    let evicted0 = kernel.vm_stats.blocks_evicted;
    let mut ks = Ksplice::new();
    ks.apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
        .expect("apply");
    kernel.call_at_limited(entry, &[1], u64::MAX).expect("post-apply stress");
    ks.undo_any_traced(&mut kernel, cve.id, &ApplyOptions::default(), &mut tracer)
        .expect("undo");
    kernel.call_at_limited(entry, &[1], u64::MAX).expect("post-undo stress");
    let flushes = kernel.vm_stats.icache_flushes - flushes0;
    let evicted = kernel.vm_stats.blocks_evicted - evicted0;
    assert!(flushes >= 2, "apply and undo must each flush the icache");
    assert!(evicted > 0, "trampoline writes must evict cached blocks");

    tracer.count("bench.vm_steps_measured", steps);
    tracer.count("bench.vm_steps_per_sec", per_sec);
    tracer.count("bench.vm_block_hit_permille", hit_permille);
    tracer.count("bench.vm_blocks_decoded", stats.blocks_decoded);
    tracer.count("bench.vm_icache_flushes", flushes);
    tracer.count("bench.vm_blocks_evicted", evicted);
    println!(
        "\n== vm dispatch: {per_sec} steps/s over {steps} steps \
         ({hit_permille}‰ block-cache hits, {} blocks decoded); \
         apply+undo round trip: {flushes} icache flushes, {evicted} blocks evicted ==\n",
        stats.blocks_decoded
    );
    std::fs::write("BENCH_vm.json", tracer.metrics_json()).expect("write BENCH_vm.json");

    let mut group = c.benchmark_group("vm");
    group.bench_function("stress_round", |b| {
        b.iter(|| kernel.call_at_limited(entry, &[1], u64::MAX).expect("round"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
