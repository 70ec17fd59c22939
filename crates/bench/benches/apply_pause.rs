//! §2/§5.2 — the stop_machine interruption ("about 0.7 milliseconds").
//!
//! Applies a hot update to a kernel running busy threads and reports the
//! measured pause, then times the full apply/undo cycle.

use criterion::{criterion_group, criterion_main, Criterion};
use ksplice_bench::{boot_eval_kernel, pack_for, small_cve};
use ksplice_core::{ApplyOptions, Ksplice, Tracer};

fn bench(c: &mut Criterion) {
    let case = small_cve();
    let (pack, _) = pack_for(&case);

    // One instrumented run with live load for the headline number. The
    // tracer's metrics (stop_machine attempts, pause histogram in µs,
    // trampolines written) go to BENCH_apply_pause.json.
    {
        let mut kernel = boot_eval_kernel();
        let entry = ksplice_eval::load_stress(&mut kernel).unwrap();
        ksplice_eval::spawn_stress(&mut kernel, entry, 1_000).unwrap();
        kernel.run(5_000);
        let mut ks = Ksplice::new();
        let mut tracer = Tracer::new();
        ks.apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
            .unwrap();
        println!(
            "\n== stop_machine pause while applying {} under load: {:?} (paper: ~0.7 ms) ==\n",
            case.id,
            kernel.last_stop_machine.unwrap()
        );
        std::fs::write("BENCH_apply_pause.json", tracer.metrics_json())
            .expect("write BENCH_apply_pause.json");
    }

    c.bench_function("apply_pause/stop_machine_section", |b| {
        // Fresh kernel per batch; measure apply+undo (the pause is the
        // dominated inner section; Criterion reports the full redirect
        // cost including the safety check).
        b.iter_batched(
            || (boot_eval_kernel(), Ksplice::new()),
            |(mut kernel, mut ks)| {
                ks.apply(&mut kernel, &pack, &ApplyOptions::default())
                    .unwrap();
                ks.undo_any(&mut kernel, case.id, &ApplyOptions::default())
                    .unwrap();
            },
            criterion::BatchSize::PerIteration,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
