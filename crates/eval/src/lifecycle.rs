//! The lifecycle pieces of the evaluation: the shippable pack each
//! corpus entry ships, the exploit-backed health probes, and randomized
//! non-LIFO reversal of stacked updates.
//!
//! The corpus-wide lifecycle claim (every shippable update passes the
//! pre-flight gate, survives its quarantine watch window and commits;
//! for the exploit-verified entries, a deliberately wrong health probe
//! forces an automatic rollback that restores the exact pre-apply text
//! image) is checked by the one corpus pass, [`run_full_evaluation`].
//! The reversal claim is checked here: a stack of updates to disjoint
//! units can be reversed in *any* order (trampoline chains are
//! re-pointed, not unwound), and the kernel image comes back
//! byte-for-byte.
//!
//! [`run_full_evaluation`]: crate::driver::run_full_evaluation

use ksplice_core::{
    create_update_cached_traced, ApplyOptions, BuildCache, CreateError, CreateOptions, HealthProbe,
    Ksplice, Tracer, UpdatePack,
};
use ksplice_kernel::Kernel;
use ksplice_lang::{FuzzRng, SourceTree};

use crate::corpus::{find_cve, Cve};
use crate::driver::distro_image;
use crate::exploits::run_exploit;
use crate::tree::base_tree;

/// Builds a corpus entry's shippable update against the base tree
/// through a shared build cache: the security fix plus its custom code,
/// with data-semantics changes accepted exactly when custom code handles
/// them (paper §5.3). Returns the pack and the patched tree.
pub fn shippable_update(
    case: &Cve,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<(UpdatePack, SourceTree), CreateError> {
    let opts = CreateOptions {
        accept_data_changes: case.needs_custom_code(),
        ..CreateOptions::default()
    };
    create_update_cached_traced(
        case.id,
        &base_tree(),
        &case.full_patch_text(),
        &opts,
        cache,
        tracer,
    )
}

/// An exploit-backed health probe: healthy means the exploit is dead.
/// The probe compiles its exploit once, into a cache of its own, however
/// many watch rounds run it; an exploit that cannot run fails it.
pub fn exploit_probe(case: &Cve) -> HealthProbe {
    let c = case.clone();
    let cache = BuildCache::new();
    HealthProbe::Custom {
        name: format!("exploit:{}", c.id),
        check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c, &cache)? {
            Some(true) => Err("exploit still succeeds".to_string()),
            _ => Ok(()),
        }),
    }
}

/// The inverse of [`exploit_probe`]: healthy means the exploit still
/// works, so a patched kernel fails it and quarantine must roll back.
pub(crate) fn still_vulnerable_probe(case: &Cve) -> HealthProbe {
    let c = case.clone();
    let cache = BuildCache::new();
    HealthProbe::Custom {
        name: format!("still-vulnerable:{}", c.id),
        check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c, &cache)? {
            Some(true) => Ok(()),
            _ => Err("exploit no longer works".to_string()),
        }),
    }
}

/// The three exploit-verified corpus entries patching pairwise-disjoint
/// compilation units — they stack and reverse independently.
pub const DISJOINT_STACK: [&str; 3] = ["CVE-2006-2451", "CVE-2005-0750", "CVE-2005-4605"];

/// Applies [`DISJOINT_STACK`] to one kernel, then reverses the three
/// updates in a `seed`-determined random order via non-LIFO undo.
/// Asserts (by `Err`) that text and full image checksums return to the
/// pre-apply values. Returns the reversal order used.
pub fn non_lifo_reversal_sweep(seed: u64) -> Result<Vec<&'static str>, String> {
    let cache = BuildCache::new();
    let image = distro_image(&base_tree(), &cache)?;
    let mut kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
    let text_before = kernel.mem.text_checksum();
    let image_before = kernel.mem.image_checksum();

    let mut tracer = Tracer::disabled();
    let mut ks = Ksplice::new();
    for id in DISJOINT_STACK {
        let case = find_cve(id)?;
        let (pack, _) = shippable_update(&case, &cache, &mut tracer)
            .map_err(|e| format!("{}: create: {e}", case.id))?;
        ks.apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
            .map_err(|e| format!("{id}: apply: {e}"))?;
    }

    // Fisher–Yates with the seeded generator.
    let mut order: Vec<&'static str> = DISJOINT_STACK.to_vec();
    let mut rng = FuzzRng::from_state(seed | 1);
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
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
