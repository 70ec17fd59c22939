//! Property: abandoning an update after retries restores the *exact*
//! pre-apply memory image, under random fault schedules and random
//! retry policies.
//!
//! Each iteration boots a fresh kernel, snapshots a checksum of every
//! mapped byte, arms a randomly drawn fault schedule that guarantees
//! abandonment, runs the apply, and requires (a) the documented error,
//! (b) a byte-identical image, and (c) the per-attempt backoff trail on
//! the tracer. Randomness comes from the repo's hand-rolled seeded
//! xorshift64* generator, so every failure replays from its seed.

use ksplice_core::trace::{RingSink, Tracer};
use ksplice_core::{
    create_update, ApplyError, ApplyOptions, CreateOptions, Ksplice, RetryPolicy,
};
use ksplice_kernel::{Fault, Kernel};
use ksplice_lang::{Options, SourceTree};
use ksplice_patch::make_diff;

/// xorshift64* — tiny deterministic PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const SRC: &str = "int counter = 0;\n\
int bump(int by) {\n\
    counter = counter + by;\n\
    return counter;\n\
}\n\
int peek() {\n\
    return counter;\n\
}\n";

/// The shared fixture: source tree, prebuilt boot image (compiled once —
/// every seed boots from the same objects) and update pack.
fn fixture() -> (SourceTree, ksplice_object::ObjectSet) {
    let mut tree = SourceTree::new();
    tree.insert("kernel/ctr.kc", SRC);
    let image = ksplice_lang::build_tree(&tree, &Options::distro()).unwrap();
    (tree, image)
}

fn make_pack(tree: &SourceTree) -> ksplice_core::UpdatePack {
    let patched = SRC.replace("counter + by", "counter + by + by");
    let patch = make_diff("kernel/ctr.kc", SRC, &patched).unwrap();
    let (pack, _) = create_update("prop", tree, &patch, &CreateOptions::default()).unwrap();
    pack
}

/// Draws a random retry policy: shape, attempts, delays, jitter,
/// cooldown all vary with the seed.
fn random_policy(rng: &mut Rng) -> RetryPolicy {
    let attempts = 2 + rng.below(4) as u32;
    let delay = 50 + rng.below(2_000);
    let policy = if rng.below(2) == 0 {
        RetryPolicy::fixed(attempts, delay)
    } else {
        RetryPolicy::exponential(attempts, delay, delay * (1 + rng.below(8)))
    };
    let policy = match rng.below(3) {
        0 => policy,
        1 => policy.with_jitter(10, rng.next()),
        _ => policy.with_jitter(25, rng.next()),
    };
    match rng.below(2) {
        0 => policy,
        _ => policy.with_cooldown(500 + rng.below(2_000)),
    }
}

#[test]
fn jitter_is_deterministic_per_seed_and_bounded_by_the_cap() {
    let mut rng = Rng::new(0xf422);
    for round in 0..500u64 {
        let attempts = 1 + rng.below(16) as u32;
        let delay = 1 + rng.below(50_000);
        let cap = 1 + rng.below(200_000);
        let pct = rng.below(101) as u32;
        let seed = rng.next();
        let base_policy = if rng.below(2) == 0 {
            RetryPolicy::fixed(attempts, delay)
        } else {
            RetryPolicy::exponential(attempts, delay, cap)
        };
        let policy = base_policy.clone().with_jitter(pct, seed);
        let replay = base_policy.clone().with_jitter(pct, seed);

        for attempt in 1..=attempts {
            let base = base_policy.delay_steps(attempt);
            let d = policy.delay_steps(attempt);

            // Deterministic: the same (policy, attempt) always yields the
            // same delay — recomputed on the same value and on an
            // independently constructed identical policy.
            assert_eq!(d, policy.delay_steps(attempt), "round {round}");
            assert_eq!(d, replay.delay_steps(attempt), "round {round}");

            // Bounded: jitter moves the delay by at most pct% of the
            // (already capped) base, never below one step.
            let span = base / 100 * pct as u64 + base % 100 * pct as u64 / 100;
            assert!(
                d >= base.saturating_sub(span).max(1.min(base)) && d <= base + span,
                "round {round} attempt {attempt}: base {base} span {span} got {d}"
            );
            assert!(
                d <= policy.max_delay_steps + span,
                "round {round} attempt {attempt}: jitter escaped the cap"
            );
        }

        // A different seed must eventually produce a different schedule
        // (when jitter is actually in play).
        if pct >= 10 && delay >= 1_000 && attempts >= 4 {
            let other = base_policy.clone().with_jitter(pct, seed ^ 0xdead_beef);
            let a: Vec<u64> = (1..=attempts).map(|n| policy.delay_steps(n)).collect();
            let b: Vec<u64> = (1..=attempts).map(|n| other.delay_steps(n)).collect();
            assert_ne!(a, b, "round {round}: distinct seeds gave identical jitter");
        }
    }
}

#[test]
fn abandon_after_retries_restores_the_exact_memory_image() {
    let (tree, image) = fixture();
    let pack = make_pack(&tree);
    for seed in 1..=25u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut kernel = Kernel::boot_image(&image).unwrap();
        let policy = random_policy(&mut rng);

        // Arm more busy windows than the policy has attempts, so every
        // stack check fails and the apply must abandon.
        let windows = policy.max_attempts + rng.below(3) as u32;
        kernel.faults.reseed(seed);
        kernel
            .arm_fault(Fault::StackBusy { windows })
            .unwrap();
        if rng.below(2) == 0 {
            kernel
                .arm_fault(Fault::StepJitter {
                    max_steps: 1 + rng.below(200),
                })
                .unwrap();
        }

        let before = kernel.mem.image_checksum();
        let ring = RingSink::new(256);
        let events = ring.handle();
        let mut tracer = Tracer::new().with_sink(Box::new(ring));
        let err = Ksplice::new()
            .apply_traced(
                &mut kernel,
                &pack,
                &ApplyOptions::with_retry(policy.clone()),
                &mut tracer,
            )
            .unwrap_err();

        match err {
            ApplyError::NotQuiescent { attempts, .. } => {
                assert_eq!(attempts, policy.max_attempts, "seed {seed}")
            }
            other => panic!("seed {seed}: expected NotQuiescent, got {other}"),
        }
        assert_eq!(
            kernel.mem.image_checksum(),
            before,
            "seed {seed}: abandon left the memory image changed"
        );

        // The abandon is checksum-verified on the trace...
        let verified = events.named("apply.rollback_verified");
        assert_eq!(verified.len(), 1, "seed {seed}");
        assert_eq!(
            verified[0].field("restored").and_then(|v| v.as_bool()),
            Some(true),
            "seed {seed}"
        );
        // ...and every inter-attempt delay followed the policy exactly.
        let delays = events.named("apply.retry_delay");
        assert_eq!(delays.len(), policy.max_attempts as usize - 1, "seed {seed}");
        for (i, e) in delays.iter().enumerate() {
            let attempt = i as u32 + 1;
            assert_eq!(e.u64_field("attempt"), Some(attempt as u64), "seed {seed}");
            assert_eq!(
                e.u64_field("steps"),
                Some(policy.delay_steps(attempt)),
                "seed {seed} attempt {attempt}"
            );
        }
        if policy.cooldown_steps > 0 {
            assert_eq!(events.named("apply.cooldown").len(), 1, "seed {seed}");
        }
        assert_eq!(events.named("apply.abort").len(), 1, "seed {seed}");

        // The kernel still works and the update never took effect.
        assert_eq!(kernel.call_function("bump", &[3]).unwrap(), 3, "seed {seed}");
    }
}

#[test]
fn module_load_failures_abort_with_the_image_intact() {
    let (tree, image) = fixture();
    let pack = make_pack(&tree);
    for seed in 100..=115u64 {
        let mut kernel = Kernel::boot_image(&image).unwrap();
        kernel.faults.reseed(seed);
        kernel.arm_fault(Fault::ModuleLoad { count: 1 }).unwrap();

        let before = kernel.mem.image_checksum();
        let err = Ksplice::new()
            .apply(&mut kernel, &pack, &ApplyOptions::default())
            .unwrap_err();
        assert!(matches!(err, ApplyError::Link(_)), "seed {seed}: {err}");
        assert_eq!(
            kernel.mem.image_checksum(),
            before,
            "seed {seed}: failed load left the memory image changed"
        );
        assert_eq!(kernel.call_function("bump", &[2]).unwrap(), 2, "seed {seed}");
    }
}

#[test]
fn undo_abandon_restores_the_exact_memory_image() {
    let (tree, image) = fixture();
    let pack = make_pack(&tree);
    for seed in 200..=215u64 {
        let mut rng = Rng::new(seed);
        let mut kernel = Kernel::boot_image(&image).unwrap();
        let mut ks = Ksplice::new();
        ks.apply(&mut kernel, &pack, &ApplyOptions::default())
            .unwrap();

        let policy = random_policy(&mut rng);
        let windows = policy.max_attempts + rng.below(3) as u32;
        kernel.faults.reseed(seed);
        kernel
            .arm_fault(Fault::StackBusy { windows })
            .unwrap();

        let before = kernel.mem.image_checksum();
        let err = ks
            .undo_any(
                &mut kernel,
                "prop",
                &ApplyOptions::with_retry(policy.clone()),
            )
            .unwrap_err();
        assert!(
            matches!(err, ksplice_core::UndoError::NotQuiescent { .. }),
            "seed {seed}: {err}"
        );
        assert_eq!(
            kernel.mem.image_checksum(),
            before,
            "seed {seed}: undo abandon changed the memory image"
        );
        // The update is still live and still in effect.
        assert_eq!(ks.live_updates().count(), 1, "seed {seed}");
        assert_eq!(kernel.call_function("bump", &[3]).unwrap(), 6, "seed {seed}");
    }
}
