//! Corpus-wide lifecycle sweeps: the pre-flight gate and quarantine
//! watch window over every CVE, and randomized non-LIFO reversal of
//! stacked updates.
//!
//! Two claims are exercised here, corpus-wide rather than on toy
//! fixtures:
//!
//! * every shippable corpus update passes the pre-flight gate, survives
//!   its quarantine watch window, and commits — and for the
//!   exploit-verified entries, a deliberately wrong health probe forces
//!   an automatic rollback that restores the exact pre-apply text image;
//! * a stack of updates to disjoint units can be reversed in *any*
//!   order (trampoline chains are re-pointed, not unwound), and the
//!   kernel image comes back byte-for-byte.

use ksplice_core::{
    create_update_cached_traced, preflight, ApplyOptions, BuildCache, CreateOptions, HealthProbe,
    Ksplice, LifecycleError, Tracer, UpdateManager, UpdatePack, UpdateState, WatchPolicy,
};
use ksplice_kernel::Kernel;
use ksplice_object::ObjectSet;

use crate::corpus::{corpus, Cve};
use crate::driver::distro_image;
use crate::exploits::run_exploit;
use crate::tree::base_tree;

/// The lifecycle verdict for one corpus entry.
#[derive(Debug, Clone)]
pub struct LifecycleOutcome {
    /// The CVE id.
    pub id: &'static str,
    /// The pre-flight gate accepted the pack against a fresh kernel.
    pub preflight_ok: bool,
    /// The update survived its watch window and committed.
    pub committed: bool,
    /// For exploit-verified entries: a probe demanding the *vulnerable*
    /// behaviour forced an automatic rollback that restored the exact
    /// pre-apply text checksum. `None` for entries with no exploit.
    pub rollback_clean: Option<bool>,
}

/// Builds the shippable pack for one corpus entry through a shared
/// build cache.
fn pack_for(
    case: &Cve,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<UpdatePack, String> {
    let opts = CreateOptions {
        accept_data_changes: case.needs_custom_code(),
        ..CreateOptions::default()
    };
    let patch = if case.needs_custom_code() {
        case.full_patch_text()
    } else {
        case.patch_text()
    };
    create_update_cached_traced(case.id, &base_tree(), &patch, &opts, cache, tracer)
        .map(|(pack, _)| pack)
        .map_err(|e| format!("{}: create: {e}", case.id))
}

/// An exploit-backed health probe: healthy means the exploit is dead.
fn exploit_probe(case: &Cve) -> HealthProbe {
    let c = case.clone();
    HealthProbe::Custom {
        name: format!("exploit:{}", c.id),
        check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c) {
            Some(true) => Err("exploit still succeeds".to_string()),
            _ => Ok(()),
        }),
    }
}

/// Runs one corpus entry through the full lifecycle: pre-flight, apply,
/// quarantine under its exploit probe (when it has one), commit — plus
/// the failing-probe leg on a second kernel for exploit entries.
fn lifecycle_one(
    case: &Cve,
    image: &ObjectSet,
    cache: &BuildCache,
    watch: &WatchPolicy,
    tracer: &mut Tracer,
) -> Result<LifecycleOutcome, String> {
    let pack = pack_for(case, cache, tracer)?;

    // Leg 1: the healthy path. The exploit (when present) doubles as the
    // health probe — a committed update means it was dead every round.
    let mut kernel = Kernel::boot_image(image).map_err(|e| format!("{}: boot: {e}", case.id))?;
    let mut mgr = UpdateManager::with_watch(watch.clone());
    let preflight_ok = preflight(mgr.ksplice(), &kernel, &pack, tracer).is_ok();
    let mut probes: Vec<HealthProbe> = Vec::new();
    if case.exploit.is_some() {
        probes.push(exploit_probe(case));
    }
    let committed = mgr
        .apply_watched(&mut kernel, &pack, &mut probes, &ApplyOptions::default(), tracer)
        .is_ok()
        && mgr.state(case.id) == Some(UpdateState::Committed);

    // Leg 2 (exploit entries only): a probe that demands the *vulnerable*
    // answer fails on the patched kernel; quarantine must roll back and
    // leave the text image exactly as it was before the apply.
    let rollback_clean = if case.exploit.is_some() {
        let mut kernel =
            Kernel::boot_image(image).map_err(|e| format!("{}: boot: {e}", case.id))?;
        let text_before = kernel.mem.text_checksum();
        let c = case.clone();
        let mut probes = vec![HealthProbe::Custom {
            name: format!("still-vulnerable:{}", c.id),
            check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c) {
                Some(true) => Ok(()),
                _ => Err("exploit no longer works".to_string()),
            }),
        }];
        let mut mgr = UpdateManager::with_watch(watch.clone());
        let quarantined = matches!(
            mgr.apply_watched(&mut kernel, &pack, &mut probes, &ApplyOptions::default(), tracer),
            Err(LifecycleError::Quarantine { .. })
        );
        Some(
            quarantined
                && mgr.state(case.id) == Some(UpdateState::RolledBack)
                && kernel.mem.text_checksum() == text_before,
        )
    } else {
        None
    };

    Ok(LifecycleOutcome {
        id: case.id,
        preflight_ok,
        committed,
        rollback_clean,
    })
}

/// Runs every corpus entry through the full lifecycle (pre-flight,
/// watched apply, and for exploit entries the failing-probe rollback
/// leg) with a shared build cache. Outcomes come back in corpus order.
pub fn lifecycle_corpus_sweep(
    watch: &WatchPolicy,
    tracer: &mut Tracer,
) -> Result<Vec<LifecycleOutcome>, String> {
    let cases = corpus();
    let base = base_tree();
    let cache = BuildCache::new();
    let image = distro_image(&base, &cache)?;
    let mut out = Vec::with_capacity(cases.len());
    for case in &cases {
        out.push(lifecycle_one(case, &image, &cache, watch, tracer)?);
    }
    Ok(out)
}

/// The three exploit-verified corpus entries patching pairwise-disjoint
/// compilation units — they stack and reverse independently.
pub const DISJOINT_STACK: [&str; 3] = ["CVE-2006-2451", "CVE-2005-0750", "CVE-2005-4605"];

/// A tiny deterministic generator for reversal orders: xorshift64 with
/// the 13/7/17 shifts and a multiplicative output scramble (not the
/// 12/25/27 xorshift64* of `FuzzRng`; the sweep's orders are pinned to
/// this one).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Applies [`DISJOINT_STACK`] to one kernel, then reverses the three
/// updates in a `seed`-determined random order via non-LIFO undo.
/// Asserts (by `Err`) that text and full image checksums return to the
/// pre-apply values. Returns the reversal order used.
pub fn non_lifo_reversal_sweep(seed: u64) -> Result<Vec<&'static str>, String> {
    let cases = corpus();
    let base = base_tree();
    let cache = BuildCache::new();
    let image = distro_image(&base, &cache)?;
    let mut kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
    let text_before = kernel.mem.text_checksum();
    let image_before = kernel.mem.image_checksum();

    let mut tracer = Tracer::disabled();
    let mut ks = Ksplice::new();
    for id in DISJOINT_STACK {
        let case = cases.iter().find(|c| c.id == id).expect("corpus entry");
        let pack = pack_for(case, &cache, &mut tracer)?;
        ks.apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
            .map_err(|e| format!("{id}: apply: {e}"))?;
    }

    // Fisher–Yates with the seeded generator.
    let mut order: Vec<&'static str> = DISJOINT_STACK.to_vec();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }

    for id in &order {
        ks.undo_any_traced(&mut kernel, id, &ApplyOptions::default(), &mut tracer)
            .map_err(|e| format!("{id}: undo: {e}"))?;
    }

    if kernel.mem.text_checksum() != text_before {
        return Err(format!("text checksum drifted after reversal order {order:?}"));
    }
    if kernel.mem.image_checksum() != image_before {
        return Err(format!("image checksum drifted after reversal order {order:?}"));
    }
    Ok(order)
}
