//! The one worker pool behind every parallel loop in the repo: the
//! evaluation driver, the fuzz campaign, the rebase matrix and the
//! fleet's per-tick node batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ksplice_core::Tracer;

/// Worker count used when the caller does not specify `--jobs`: one per
/// available hardware thread.
pub fn default_eval_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `work` on every item over up to `jobs` scoped worker threads and
/// returns the results in item order.
///
/// Workers claim items through one atomic index, so which thread runs
/// which item varies from run to run but the returned order does not.
/// `jobs == 1` (or a single item) runs serially on the calling thread
/// with the caller's `tracer`, events and all. With more workers, each
/// traces into a private [`Tracer`] (enabled when `tracer` is) that is
/// absorbed into `tracer` after join: metrics and the step clock carry
/// over, events and spans do not ([`Tracer::absorb`]). A worker's panic
/// is resumed on the calling thread.
pub fn par_map<I: Send, T: Send>(
    items: Vec<I>,
    jobs: usize,
    tracer: &mut Tracer,
    work: impl Fn(I, &mut Tracer) -> T + Sync,
) -> Vec<T> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.into_iter().map(|item| work(item, tracer)).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let trace_workers = tracer.is_enabled();
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = if trace_workers {
                        Tracer::new()
                    } else {
                        Tracer::disabled()
                    };
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            break;
                        };
                        let item = slot.lock().expect("pool slot lock").take();
                        let item = item.expect("each index is claimed once");
                        done.push((i, work(item, &mut local)));
                    }
                    (done, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect::<Vec<_>>()
    });
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(slots.len(), || None);
    for (done, local) in outputs {
        tracer.absorb(&local);
        for (i, result) in done {
            results[i] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_and_metrics_merge() {
        for jobs in [1, 3, 64] {
            let mut tracer = Tracer::new();
            let out = par_map((0..50u64).collect(), jobs, &mut tracer, |i, t| {
                t.count("pool.items", 1);
                i * i
            });
            assert_eq!(out, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(tracer.counter("pool.items"), 50, "jobs = {jobs}");
        }
        let none: Vec<u64> = par_map(Vec::new(), 4, &mut Tracer::disabled(), |i: u64, _| i);
        assert!(none.is_empty());
    }
}
