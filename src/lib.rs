//! # ksplice-rs — automatic rebootless kernel updates
//!
//! A complete Rust reproduction of *Ksplice: Automatic Rebootless Kernel
//! Updates* (Arnold & Kaashoek, EuroSys 2009), including every substrate
//! the system needs: an ELF-style object format, an x86-flavoured
//! instruction set, an optimising C-like compiler exhibiting real
//! compiler freedoms, a simulated running kernel (loader, kallsyms,
//! threads, stop_machine), a unified-diff engine, the Ksplice core
//! (pre-post differencing, run-pre matching, hot apply/undo), and the
//! paper's 64-CVE evaluation.
//!
//! This crate is the facade: it re-exports the sub-crates under stable
//! names. See the README for architecture, `DESIGN.md` for the system
//! inventory and per-experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! # Examples
//!
//! ```
//! use ksplice::core::{create_update, ApplyOptions, CreateOptions, Ksplice};
//! use ksplice::kernel::Kernel;
//! use ksplice::lang::{Options, SourceTree};
//!
//! // Boot a (tiny) kernel the way a distributor ships it.
//! let mut tree = SourceTree::new();
//! tree.insert(
//!     "m.kc",
//!     "int check(int fd) {\n    if (fd > 4) {\n        return 0 - 9;\n    }\n    return fd;\n}\n",
//! );
//! let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
//! assert_eq!(kernel.call_function("check", &[4]).unwrap(), 4); // off-by-one
//!
//! // Hot-patch it from an ordinary unified diff. No reboot.
//! let patch = ksplice::patch::make_diff(
//!     "m.kc",
//!     tree.get("m.kc").unwrap(),
//!     "int check(int fd) {\n    if (fd >= 4) {\n        return 0 - 9;\n    }\n    return fd;\n}\n",
//! )
//! .unwrap();
//! let (pack, _) = create_update("fix", &tree, &patch, &CreateOptions::default()).unwrap();
//! Ksplice::new().apply(&mut kernel, &pack, &ApplyOptions::default()).unwrap();
//! assert_eq!(kernel.call_function("check", &[4]).unwrap() as i64, -9);
//! ```

/// K64 instruction set: encoding, decoding and an assembler, plus the
/// instruction lengths, branch targets and no-ops run-pre matching needs.
pub use ksplice_asm as asm;
/// The Ksplice system: differencing, matching, packaging, apply/undo.
pub use ksplice_core as core;
/// The §6 evaluation: base tree, 64-CVE corpus, exploits, stress test.
pub use ksplice_eval as eval;
/// The simulated kernel: memory, loader, kallsyms, VM, stop_machine.
pub use ksplice_kernel as kernel;
/// The `kc` compiler and `kbuild` driver.
pub use ksplice_lang as lang;
/// KELF relocatable objects.
pub use ksplice_object as object;
/// Unified diff parse/apply/generate.
pub use ksplice_patch as patch;
