//! The correctness-checking stress test (paper §6.2: "the kernel needed
//! to continue functioning without any observed problems while running a
//! correctness-checking POSIX stress test").
//!
//! The workload is itself kernel code: a module whose `stress_main`
//! hammers the file, socket, IPC, memory and timer subsystems and checks
//! invariants as it goes (every resource it opens it can read back and
//! close; counts balance). It returns 0 on success and a nonzero
//! checkpoint number at the first violated invariant, so a wrong symbol
//! resolution or a botched replacement shows up as a concrete failure,
//! not a vibe.

use ksplice_kernel::{CallError, Kernel};
use ksplice_lang::{build_tree_cached, BuildCache, Options, SourceTree};

/// The stress workload module source.
pub const STRESS_SRC: &str = "\
int stress_main(int rounds) {\n\
    int r;\n\
    int fd;\n\
    int sd;\n\
    int v;\n\
    int before;\n\
    for (r = 0; r < rounds; r = r + 1) {\n\
        before = open_count();\n\
        fd = sys_open(5 + (r & 7), 6);\n\
        if (fd < 0) {\n\
            return 1;\n\
        }\n\
        if (open_count() != before + 1) {\n\
            return 2;\n\
        }\n\
        if (sys_write_file(fd, 10 + r, 4) != 4) {\n\
            return 3;\n\
        }\n\
        v = sys_read_file(fd, 0, 4);\n\
        if (v < 0) {\n\
            return 4;\n\
        }\n\
        if (sys_close(fd) != 0) {\n\
            return 5;\n\
        }\n\
        sd = sys_socket(2000 + (r & 3));\n\
        if (sd < 0) {\n\
            return 6;\n\
        }\n\
        if (sys_connect(sd, 7) != 0) {\n\
            return 7;\n\
        }\n\
        if (sock_close(sd) != 0) {\n\
            return 8;\n\
        }\n\
        if (sys_msgsnd(r & 3, 1, 64) < 1) {\n\
            return 9;\n\
        }\n\
        if (sys_msgrcv(r & 3, 64) != 64) {\n\
            return 10;\n\
        }\n\
        if (sys_brk(0) < 0x10000) {\n\
            return 11;\n\
        }\n\
        if (timer_arm(r & 31, 50 + r) != 0) {\n\
            return 12;\n\
        }\n\
        if (timer_cancel(r & 31) != 0) {\n\
            return 13;\n\
        }\n\
        if (igmp_join(500 + (r & 1)) != 0) {\n\
            return 14;\n\
        }\n\
        if (igmp_leave(500 + (r & 1)) != 0) {\n\
            return 15;\n\
        }\n\
        yield_cpu();\n\
    }\n\
    return 0;\n\
}\n";

/// Loads the stress module into a kernel through `cache`, returning the
/// entry address.
pub fn load_stress(kernel: &mut Kernel, cache: &BuildCache) -> Result<u64, String> {
    load_workload(kernel, cache, "stress/stress.kc", STRESS_SRC, "stress_main")
}

/// Compiles a module's `src` as unit `unit` through `cache`, loads it,
/// and returns the address of its `entry` function: the one loader of
/// every module the evaluation builds from source. The unit builds as a
/// one-unit tree, so it has a tree unit's cache key and a hit inserts
/// the cached object itself. The unit name is part of the module's
/// identity (its region names and text checksum), so each keeps its own.
pub fn load_workload(
    kernel: &mut Kernel,
    cache: &BuildCache,
    unit: &str,
    src: &str,
    entry: &str,
) -> Result<u64, String> {
    let mut tree = SourceTree::new();
    tree.insert(unit, src);
    let (set, _) = build_tree_cached(&tree, &Options::pre_post(), cache)
        .map_err(|e| format!("{unit}: compile: {e}"))?;
    let obj = set
        .get(unit)
        .ok_or_else(|| format!("{unit}: not a .kc or .ks unit"))?;
    let module = kernel
        .insmod(obj, false)
        .map_err(|e| format!("{unit}: insmod: {e}"))?;
    module
        .symbol_addr(entry)
        .ok_or_else(|| format!("{unit}: {entry} missing"))
}

/// Runs `rounds` of the stress workload synchronously; Ok(()) on a clean
/// pass, Err describing the first violated invariant or oops.
pub fn run_stress(kernel: &mut Kernel, entry: u64, rounds: u64) -> Result<(), String> {
    match kernel.call_at(entry, &[rounds]) {
        Ok(0) => Ok(()),
        Ok(checkpoint) => Err(format!("stress invariant {checkpoint} violated")),
        Err(CallError::Oops(o)) => Err(format!("stress oops: {}", o.reason)),
        Err(e) => Err(format!("stress: {e}")),
    }
}

/// Spawns the stress workload as a background kernel thread (for updates
/// applied *while the workload runs*).
pub fn spawn_stress(kernel: &mut Kernel, entry: u64, rounds: u64) -> Result<u64, String> {
    kernel
        .spawn_at(entry, &[rounds], "stress")
        .map_err(|e| format!("stress spawn: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::base_tree;
    use ksplice_kernel::ThreadState;

    #[test]
    fn stress_passes_on_the_base_kernel() {
        let mut k = Kernel::boot(&base_tree(), &Options::distro()).unwrap();
        let entry = load_stress(&mut k, &BuildCache::new()).unwrap();
        run_stress(&mut k, entry, 25).unwrap();
        assert!(k.oopses.is_empty());
    }

    #[test]
    fn stress_runs_as_background_thread() {
        let mut k = Kernel::boot(&base_tree(), &Options::distro()).unwrap();
        let entry = load_stress(&mut k, &BuildCache::new()).unwrap();
        let tid = spawn_stress(&mut k, entry, 10).unwrap();
        k.run(50_000_000);
        assert_eq!(k.thread(tid).unwrap().state, ThreadState::Exited(0));
    }
}
