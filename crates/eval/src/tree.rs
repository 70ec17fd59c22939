//! The synthetic kernel source tree the evaluation patches.
//!
//! ~25 compilation units across the subsystems Linux security patches
//! actually land in (fs, net, mm, ipc, drivers, security, arch), written
//! in `kc` plus one assembly unit, with deliberately realistic hazards:
//! duplicate static symbol names across units (`debug`, `notesize`,
//! `state`), small helpers the optimiser inlines (with and without the
//! `inline` keyword), ops tables of function pointers, and the seeded
//! vulnerabilities the CVE corpus patches.

use ksplice_lang::{canonicalize_tree, SourceTree};

/// `(path, contents)` of every file in the base tree.
pub const BASE_FILES: &[(&str, &str)] = &[
    ("include/defs.kh", include_str!("../tree/include/defs.kh")),
    ("kernel/cred.kc", include_str!("../tree/kernel/cred.kc")),
    ("kernel/sys.kc", include_str!("../tree/kernel/sys.kc")),
    ("kernel/sched.kc", include_str!("../tree/kernel/sched.kc")),
    ("kernel/exit.kc", include_str!("../tree/kernel/exit.kc")),
    ("kernel/timer.kc", include_str!("../tree/kernel/timer.kc")),
    ("kernel/compat.kc", include_str!("../tree/kernel/compat.kc")),
    ("fs/open.kc", include_str!("../tree/fs/open.kc")),
    ("fs/inode.kc", include_str!("../tree/fs/inode.kc")),
    ("fs/file_rw.kc", include_str!("../tree/fs/file_rw.kc")),
    ("fs/exec.kc", include_str!("../tree/fs/exec.kc")),
    ("fs/readdir.kc", include_str!("../tree/fs/readdir.kc")),
    (
        "fs/binfmt_misc.kc",
        include_str!("../tree/fs/binfmt_misc.kc"),
    ),
    ("net/socket.kc", include_str!("../tree/net/socket.kc")),
    ("net/tcp.kc", include_str!("../tree/net/tcp.kc")),
    ("net/netlink.kc", include_str!("../tree/net/netlink.kc")),
    ("net/igmp.kc", include_str!("../tree/net/igmp.kc")),
    ("mm/mmap.kc", include_str!("../tree/mm/mmap.kc")),
    ("mm/brk.kc", include_str!("../tree/mm/brk.kc")),
    ("ipc/msg.kc", include_str!("../tree/ipc/msg.kc")),
    ("ipc/shm.kc", include_str!("../tree/ipc/shm.kc")),
    ("drivers/dst.kc", include_str!("../tree/drivers/dst.kc")),
    (
        "drivers/dst_ca.kc",
        include_str!("../tree/drivers/dst_ca.kc"),
    ),
    (
        "drivers/bluetooth.kc",
        include_str!("../tree/drivers/bluetooth.kc"),
    ),
    (
        "security/commoncap.kc",
        include_str!("../tree/security/commoncap.kc"),
    ),
    ("lib/string.kc", include_str!("../tree/lib/string.kc")),
    ("arch/entry.ks", include_str!("../tree/arch/entry.ks")),
];

/// Builds the base (vulnerable) source tree.
pub fn base_tree() -> SourceTree {
    BASE_FILES
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

/// The base tree with every `.kc` unit replaced by its canonical
/// pretty-printed form. Fuzz mutants and rebase drift are generated from
/// — and diffed against — this tree, so a one-node mutation produces a
/// few-line unified diff instead of a whole-file rewrite.
pub fn canonical_base_tree() -> SourceTree {
    canonicalize_tree(&base_tree())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_kernel::Kernel;
    use ksplice_lang::{build_tree, Options};

    #[test]
    fn base_tree_compiles_in_both_modes() {
        let tree = base_tree();
        build_tree(&tree, &Options::distro()).unwrap();
        build_tree(&tree, &Options::pre_post()).unwrap();
    }

    #[test]
    fn base_tree_boots_and_runs() {
        let tree = base_tree();
        let mut k = Kernel::boot(&tree, &Options::distro()).unwrap();
        // Syscall round trip through the dispatcher.
        let fd = k.call_function("sys_open", &[5, 6]).unwrap() as i64;
        assert!(fd >= 0);
        assert_eq!(
            k.call_function("sys_write_file", &[fd as u64, 7, 3])
                .unwrap(),
            3
        );
        assert_eq!(k.call_function("open_count", &[]).unwrap(), 1);
        assert_eq!(k.call_function("sys_close", &[fd as u64]).unwrap(), 0);
        // Sockets.
        let sd = k.call_function("sys_socket", &[80]).unwrap() as i64;
        assert!(sd >= 0);
        assert_eq!(k.call_function("sys_connect", &[sd as u64, 9]).unwrap(), 0);
        // The compat assembly entry dispatches through the table.
        assert_eq!(k.call_function("compat_entry", &[2, 42]).unwrap() as i64, 0);
    }
}
