//! The simulated kernel substrate Ksplice patches.
//!
//! The paper's system operates on a *live* Linux kernel: it reads the run
//! code out of kernel memory, loads helper/primary modules, captures the
//! CPUs with `stop_machine`, walks thread stacks for the safety check,
//! and writes trampolines into executing text (paper §4–§5). This crate
//! provides the closest equivalent that can run inside a test suite:
//!
//! * a flat kernel [`Memory`] with W^X regions and a privileged
//!   `poke` path (the "briefly make text writable" analogue),
//! * an in-kernel linker for the boot image and for run-time
//!   modules, including *deferred* relocations — the hook Ksplice needs
//!   to fulfil symbol addresses discovered by run-pre matching,
//! * [`Kallsyms`] with honest name ambiguity (all local
//!   symbols included, §4.1),
//! * a K64 interpreter driving real kernel threads with real stacks, so
//!   backtraces, oopses, sleeping in non-quiescent functions, syscalls
//!   (`int 0x80` → the tree's own `do_syscall`) and exploits all behave,
//! * [`Kernel::stop_machine`] and frame-pointer backtraces for the §5.2
//!   safety check, and
//! * the shadow-data-structure natives of §5.3.
//!
//! # Examples
//!
//! ```
//! use ksplice_kernel::Kernel;
//! use ksplice_lang::{Options, SourceTree};
//!
//! let mut tree = SourceTree::new();
//! tree.insert("init.kc", r#"
//!     int add(int a, int b) { return a + b; }
//! "#);
//! let mut k = Kernel::boot(&tree, &Options::distro()).unwrap();
//! assert_eq!(k.call_function("add", &[2, 40]).unwrap(), 42);
//! ```

#![deny(missing_docs)]

mod differential;
mod fault;
mod kallsyms;
mod kernel;
mod loader;
mod mem;
mod native;
mod profiler;
mod smp;
mod vm;

pub use differential::{
    diff_images, diff_traces, is_arena_addr, normalize_call, normalize_diag, traced_call,
    DiffOptions, ImageDiffReport, RegionDelta, TraceEntry,
};
pub use fault::{Fault, FaultPlan, FiredFault};
pub use kallsyms::{KSym, Kallsyms};
pub use kernel::{
    BootError, CallError, Kernel, KernelSnapshot, Oops, RunExit, SpawnError, Thread, ThreadState,
    QUANTUM, STACK_SIZE,
};
pub use loader::{
    apply_reloc_at, load_kernel_image, load_module, LinkError, LoadedModule, PendingReloc,
};
pub use mem::{MemFault, Memory, Perms, Region, KBASE, MEM_SIZE};
pub use profiler::{
    collapsed_stacks, hot_functions, quiescence_risk, samples_per_cpu, FrameSym, HotFunc,
    Profiler, QuiesceRisk, Residency, Sample,
};
pub use native::{native_addr, native_from_addr, Native, NATIVE_BASE, RETURN_SENTINEL};
pub use smp::{Cpu, SmpConfig, StopMachineError, DEFAULT_SCHED_SEED};
pub use vm::VmStats;
