//! Ksplice: automatic rebootless kernel updates, at the object-code
//! layer (Arnold & Kaashoek, EuroSys 2009).
//!
//! The crate implements the paper's two techniques and the machinery
//! around them, against the simulated kernel of [`ksplice_kernel`]:
//!
//! * **Pre-post differencing** ([`differ`], §3): build the kernel twice —
//!   original and patched source, both with per-item sections — and diff
//!   the object code to find the functions a patch really changes,
//!   including functions the source diff never mentions (inline copies,
//!   interface changes).
//! * **Run-pre matching** ([`runpre`], §4): byte-walk each affected pre
//!   optimisation unit against the running kernel, aborting on any
//!   difference (safety) and recovering symbol addresses from relocated
//!   run bytes (`S = val + P_run − A`) to resolve names that are
//!   ambiguous in kallsyms.
//! * **Update packaging** ([`package`], §3.2/§5.1): replacement code into
//!   *primary* modules, whole pre units into *helper* modules.
//! * **`ksplice-create`** ([`create`], §5): source tree + unified diff →
//!   update pack, refusing patches that change persistent data semantics
//!   unless a programmer signs off.
//! * **`ksplice-apply` / `ksplice-undo`** ([`apply`], §5.2–§5.4): module
//!   loading, deferred relocation fulfilment, custom-code hooks, the
//!   stop_machine stack safety check with retries, trampoline insertion,
//!   reversal, and re-patching of previously-patched kernels.
//!
//! # Examples
//!
//! ```
//! use ksplice_core::{create_update, ApplyOptions, CreateOptions, Ksplice};
//! use ksplice_kernel::Kernel;
//! use ksplice_lang::{Options, SourceTree};
//!
//! let mut tree = SourceTree::new();
//! tree.insert("sys.kc", "int limit = 10;\nint check(int x) {\n    if (x > limit) {\n        return 0 - 1;\n    }\n    return x;\n}\n");
//! let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
//! assert_eq!(kernel.call_function("check", &[10]).unwrap(), 10); // off-by-one bug
//!
//! let patch = "\
//! --- a/sys.kc
//! +++ b/sys.kc
//! @@ -1,5 +1,5 @@
//!  int limit = 10;
//!  int check(int x) {
//! -    if (x > limit) {
//! +    if (x >= limit) {
//!          return 0 - 1;
//!      }
//! ";
//! let (pack, _patched) = create_update("fix", &tree, patch, &CreateOptions::default()).unwrap();
//! let mut ksplice = Ksplice::new();
//! ksplice.apply(&mut kernel, &pack, &ApplyOptions::default()).unwrap();
//! assert_eq!(kernel.call_function("check", &[10]).unwrap() as i64, -1); // fixed, no reboot
//! ```

#![deny(missing_docs)]

pub mod apply;
pub mod create;
pub mod differ;
pub mod manager;
pub mod package;
pub mod rebase;
pub mod retry;
pub mod runpre;

pub use apply::{
    AppliedUpdate, ApplyError, ApplyOptions, ApplyReport, Ksplice, PatchSite, ResolvedHooks,
    UndoError, UndoReport, UpdateState, TRAMPOLINE_LEN,
};
pub use manager::{
    preflight, HealthProbe, LifecycleError, PreflightError, ProbeCheck, UpdateManager,
    WatchPolicy,
};
pub use retry::RetryPolicy;
pub use create::{
    apply_patch_to_tree, create_update, create_update_cached, create_update_cached_traced,
    diff_trees, CreateError, CreateOptions,
};
// Re-exported so callers driving the cached create path need not depend
// on `ksplice-lang` directly.
pub use ksplice_lang::{BuildCache, BuildStats};
pub use differ::{
    diff_builds, diff_builds_traced, diff_unit, BuildDiff, DataChange, DataChangeKind, UnitDiff,
};
pub use package::{build_packs, extract_primary, UnitPack, UpdatePack};
pub use rebase::{
    rebase_update, shape_similarity, HunkPort, RebaseOptions, RebaseReport, RebaseStatus,
};
pub use runpre::{
    match_function_traced, match_unit, match_unit_traced, FnMatch, MatchError, UnitMatch,
};
// Re-exported so callers configuring `ApplyOptions::smp` need not depend
// on `ksplice-kernel` directly.
pub use ksplice_kernel::{SmpConfig, StopMachineError};

// The observability layer, re-exported so downstreams need not depend on
// `ksplice-trace` directly to drive the `_traced` entry points.
pub use ksplice_trace as trace;
pub use ksplice_trace::Tracer;
