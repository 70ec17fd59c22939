//! The 64-CVE patch corpus (paper §6.1).
//!
//! Sixty-four synthetic kernel security patches modelled on the paper's
//! population of significant x86-32 Linux vulnerabilities from May 2005
//! to May 2008: about two-thirds privilege escalation and one-third
//! information disclosure; 56 applying as hot updates with no new code;
//! 8 changing persistent-data semantics and needing programmer-written
//! custom code with exactly Table 1's line counts; five touching
//! functions that contain ambiguous-named symbols; twenty touching
//! functions the optimiser inlines somewhere (only four of which say
//! `inline` in the source). CVE identifiers are *analogues*: real ids
//! from the interval attached to synthetic patches of the same class.
//!
//! Every patch is expressed as textual edits against the base tree and
//! rendered to a standard unified diff, so the whole corpus flows through
//! the same `ksplice-create` path a real patch would.

use ksplice_core::diff_trees;
use ksplice_lang::SourceTree;

use crate::tree::base_tree;

/// Consequence class (paper §6.1: "privilege escalation (about
/// two-thirds) or information disclosure (about one-third)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VulnClass {
    /// An attacker gains root (or equivalent).
    PrivilegeEscalation,
    /// An attacker reads data they should not.
    InformationDisclosure,
}

/// Why custom code is needed (Table 1's "reason for failure").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomReason {
    /// The patch changes the initial value of existing data.
    ChangesDataInit,
    /// The patch adds a field to a structure (needs shadow data).
    AddsFieldToStruct,
}

/// One textual edit against a base-tree file.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Base-tree file the edit applies to.
    pub path: &'static str,
    /// Exact text to find.
    pub find: &'static str,
    /// Replacement text.
    pub replace: &'static str,
}

/// Programmer-written custom code accompanying a patch (paper §5.3).
#[derive(Debug, Clone)]
pub struct CustomCode {
    /// Why the plain patch was not shippable.
    pub reason: CustomReason,
    /// Logical (semicolon-terminated) lines of new code, per Table 1.
    pub lines: u32,
    /// Appended to this file (hook functions + ksplice_* registrations).
    pub path: &'static str,
    /// The custom code itself.
    pub code: &'static str,
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct Cve {
    /// CVE identifier.
    pub id: &'static str,
    /// Year of the advisory.
    pub year: u16,
    /// Consequence class.
    pub class: VulnClass,
    /// One-line description.
    pub summary: &'static str,
    /// The security fix itself (no custom code).
    pub edits: Vec<Edit>,
    /// Custom code for the Table-1 cases.
    pub custom: Option<CustomCode>,
    /// Functions the patch textually modifies (for the §6.3 inlining and
    /// ambiguity statistics; verified against the real build by tests).
    pub edited_fns: Vec<&'static str>,
    /// Exploit module source, when a public exploit existed (§6.2): its
    /// `exploit_main` returns 1 when the attack works, 0 when defeated.
    pub exploit: Option<&'static str>,
}

impl Cve {
    /// Applies the plain security edits to the base tree.
    pub fn patched_tree(&self) -> SourceTree {
        self.apply_edits(false)
    }

    /// Applies the edits plus custom code.
    pub fn patched_tree_with_custom(&self) -> SourceTree {
        self.apply_edits(true)
    }

    fn apply_edits(&self, with_custom: bool) -> SourceTree {
        let mut tree = base_tree();
        for e in &self.edits {
            let cur = tree
                .get(e.path)
                .unwrap_or_else(|| panic!("{}: missing file {}", self.id, e.path));
            assert!(
                cur.contains(e.find),
                "{}: edit target not found in {}:\n{}",
                self.id,
                e.path,
                e.find
            );
            let new = cur.replacen(e.find, e.replace, 1);
            tree.insert(e.path, &new);
        }
        if with_custom {
            if let Some(c) = &self.custom {
                let cur = tree.get(c.path).expect("custom code file").to_string();
                tree.insert(c.path, &(cur + c.code));
            }
        }
        tree
    }

    /// The plain security patch as a unified diff (Figure 3's metric).
    pub fn patch_text(&self) -> String {
        diff_trees(&base_tree(), &self.patched_tree())
    }

    /// The shippable patch: security fix plus custom code, when any.
    pub fn full_patch_text(&self) -> String {
        diff_trees(&base_tree(), &self.patched_tree_with_custom())
    }

    /// True when this entry needs programmer-written code (Table 1).
    pub fn needs_custom_code(&self) -> bool {
        self.custom.is_some()
    }
}

fn cve(
    id: &'static str,
    year: u16,
    class: VulnClass,
    summary: &'static str,
    edited_fns: &[&'static str],
    edits: Vec<Edit>,
) -> Cve {
    Cve {
        id,
        year,
        class,
        summary,
        edits,
        custom: None,
        edited_fns: edited_fns.to_vec(),
        exploit: None,
    }
}

fn edit(path: &'static str, find: &'static str, replace: &'static str) -> Edit {
    Edit {
        path,
        find,
        replace,
    }
}

/// The corpus entry with id `id`.
pub fn find_cve(id: &str) -> Result<Cve, String> {
    corpus()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| format!("unknown CVE `{id}` (try `ksplice list`)"))
}

/// Builds the full 64-entry corpus.
pub fn corpus() -> Vec<Cve> {
    let mut v: Vec<Cve> = Vec::with_capacity(64);
    use VulnClass::{InformationDisclosure as I, PrivilegeEscalation as P};

    // ---- exploit-verified entries (§6.3's four) -------------------------

    let mut c = cve(
        "CVE-2006-2451",
        2006,
        P,
        "prctl: leftover debug option grants full capabilities",
        &["sys_prctl"],
        vec![edit(
            "kernel/sys.kc",
            "    if (option == 99) {\n        // Leftover debug hook: grants full capabilities to the caller.\n        grant_caps(current_tid());\n        return 0;\n    }\n",
            "",
        )],
    );
    c.exploit = Some(
        "int exploit_main() {\n\
             cred_init(current_tid(), 1000, 1000);\n\
             sys_prctl(99, 0);\n\
             if (sys_getuid() == 0) {\n\
                 return 1;\n\
             }\n\
             return 0;\n\
         }\n",
    );
    v.push(c);

    let mut c = cve(
        "CVE-2005-0750",
        2005,
        P,
        "bluetooth: missing privilege check on reserved PSM range",
        &["bt_bind"],
        vec![edit(
            "drivers/bluetooth.kc",
            "    if (psm > psm_ceiling) {\n        return 0 - 22;\n    }\n",
            "    if (psm > psm_ceiling) {\n        return 0 - 22;\n    }\n    if (psm < 0x1001) {\n        if (!capable(1)) {\n            return 0 - 13;\n        }\n    }\n",
        )],
    );
    c.exploit = Some(
        "int exploit_main() {\n\
             int r;\n\
             cred_init(current_tid(), 1000, 1000);\n\
             r = bt_bind(1, 0x100);\n\
             if (r == 1) {\n\
                 return 1;\n\
             }\n\
             return 0;\n\
         }\n",
    );
    v.push(c);

    let mut c = cve(
        "CVE-2007-4573",
        2007,
        P,
        "compat entry: missing lower bound lets negative syscall numbers index before the table",
        &["compat_entry"],
        vec![edit(
            "arch/entry.ks",
            "    cmpi r1, 3\n    jg .Lbad\n",
            "    cmpi r1, 3\n    jg .Lbad\n    cmpi r1, 0\n    jl .Lbad\n",
        )],
    );
    c.exploit = Some(
        "int exploit_main() {\n\
             cred_init(current_tid(), 1000, 1000);\n\
             compat_entry(0 - 1, 0);\n\
             if (sys_getuid() == 0) {\n\
                 return 1;\n\
             }\n\
             return 0;\n\
         }\n",
    );
    v.push(c);

    let mut c = cve(
        "CVE-2005-4605",
        2005,
        I,
        "proc: missing upper bound leaks adjacent kernel memory",
        &["read_kernel_byte"],
        vec![edit(
            "fs/exec.kc",
            "    if (idx < 0) {\n        return 0 - 22;\n    }\n    return banner[idx];",
            "    if (idx < 0 || idx > 7) {\n        return 0 - 22;\n    }\n    return banner[idx];",
        )],
    );
    c.exploit = Some(
        "int exploit_main() {\n\
             int a;\n\
             int b;\n\
             cred_init(current_tid(), 1000, 1000);\n\
             a = read_kernel_byte(8);\n\
             b = read_kernel_byte(9);\n\
             if (a == 104 && b == 117) {\n\
                 return 1;\n\
             }\n\
             return 0;\n\
         }\n",
    );
    v.push(c);

    // ---- Table 1: the eight patches needing custom code -----------------

    let mut c = cve(
        "CVE-2008-0007",
        2008,
        P,
        "mm: shrink the maximum heap break (default was exploitable)",
        &[],
        vec![edit(
            "mm/brk.kc",
            "int brk_max = 0x40000;",
            "int brk_max = 0x20000;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 34,
        path: "mm/brk.kc",
        code: "\nint brk_fix_live() {\n    int i;\n    int over;\n    int removed;\n    int clamped;\n    int survivors;\n    int span;\n    over = 0;\n    removed = 0;\n    clamped = 0;\n    survivors = 0;\n    span = 0;\n    if (brk_cur > 0x20000) {\n        over = brk_cur - 0x20000;\n        brk_cur = 0x20000;\n        clamped = clamped + 1;\n    }\n    for (i = 0; i < 16; i = i + 1) {\n        if (vmas[i].used == 0) {\n            continue;\n        }\n        if (vmas[i].start >= 0x20000 && vmas[i].start < 0x40000) {\n            vmas[i].used = 0;\n            vma_count = vma_count - 1;\n            removed = removed + 1;\n        }\n        if (vmas[i].used && vmas[i].start + vmas[i].len > 0x20000 && vmas[i].start < 0x20000) {\n            vmas[i].len = 0x20000 - vmas[i].start;\n            clamped = clamped + 1;\n        }\n    }\n    for (i = 0; i < 16; i = i + 1) {\n        if (vmas[i].used == 0) {\n            continue;\n        }\n        survivors = survivors + 1;\n        span = span + vmas[i].len;\n        if (vmas[i].len < 0) {\n            vmas[i].len = 0;\n        }\n        if (vmas[i].prot < 0) {\n            vmas[i].prot = 0;\n        }\n    }\n    printk_int(\"brk migration clamped\", clamped);\n    printk_int(\"brk migration removed\", removed);\n    printk_int(\"brk migration reclaimed\", over);\n    printk_int(\"brk surviving mappings\", survivors);\n    printk_int(\"brk surviving span\", span);\n    printk_int(\"brk ceiling now\", brk_max);\n    printk_int(\"brk break now\", brk_cur);\n    if (brk_cur < brk_base) {\n        brk_cur = brk_base;\n    }\n    if (vma_count < 0) {\n        vma_count = 0;\n    }\n    return 0;\n}\nksplice_apply(brk_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2007-4571",
        2007,
        I,
        "net: halve the default socket limit",
        &[],
        vec![edit(
            "net/socket.kc",
            "int sock_limit = 16;",
            "int sock_limit = 8;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 10,
        path: "net/socket.kc",
        code: "\nint sock_fix_live() {\n    int sd;\n    int closed;\n    closed = 0;\n    for (sd = 8; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used) {\n            sock_table[sd].used = 0;\n            sock_table[sd].state = 0;\n            socks_open = socks_open - 1;\n            closed = closed + 1;\n        }\n    }\n    if (socks_open < 0) {\n        socks_open = 0;\n    }\n    sock_limit = 8;\n    printk_int(\"sockets closed by update\", closed);\n    return 0;\n}\nksplice_apply(sock_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2007-3851",
        2007,
        P,
        "timer: tighten the arming horizon",
        &[],
        vec![edit(
            "kernel/timer.kc",
            "int timer_horizon = 100000;",
            "int timer_horizon = 10000;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 1,
        path: "kernel/timer.kc",
        code: "\nint timer_fix_live() {\n    timer_horizon = 10000;\n    return 0;\n}\nksplice_apply(timer_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2006-5753",
        2006,
        P,
        "security: kill requires a stronger capability",
        &[],
        vec![edit(
            "security/commoncap.kc",
            "int kill_cap = 2;",
            "int kill_cap = 6;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 1,
        path: "security/commoncap.kc",
        code: "\nint cap_fix_live() {\n    kill_cap = 6;\n    return 0;\n}\nksplice_apply(cap_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2006-2071",
        2006,
        P,
        "ipc: reduce the maximum message size",
        &[],
        vec![edit(
            "ipc/msg.kc",
            "int msg_max_bytes = 4096;",
            "int msg_max_bytes = 1024;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 14,
        path: "ipc/msg.kc",
        code: "\nint msg_fix_live() {\n    int q;\n    int drained;\n    drained = 0;\n    msg_max_bytes = 1024;\n    for (q = 0; q < 8; q = q + 1) {\n        if (queues[q].used == 0) {\n            continue;\n        }\n        while (queues[q].bytes > 1024 && queues[q].count > 0) {\n            queues[q].count = queues[q].count - 1;\n            queues[q].bytes = queues[q].bytes - 1024;\n            drained = drained + 1;\n        }\n        if (queues[q].bytes > 1024) {\n            queues[q].bytes = 1024;\n        }\n        if (queues[q].bytes < 0) {\n            queues[q].bytes = 0;\n        }\n    }\n    if (drained > 0) {\n        printk_int(\"oversize messages drained\", drained);\n    }\n    drained = drained + 0;\n    q = 0;\n    printk_int(\"message ceiling now\", msg_max_bytes);\n    return 0;\n}\nksplice_apply(msg_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2006-1056",
        2006,
        I,
        "fs: shorten stored directory-entry names",
        &[],
        vec![edit(
            "fs/readdir.kc",
            "int name_max = 23;",
            "int name_max = 15;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 4,
        path: "fs/readdir.kc",
        code: "\nint readdir_fix_live() {\n    int i;\n    name_max = 15;\n    for (i = 0; i < dentry_count; i = i + 1) {\n        dentries[i].name[15] = 0;\n        dentries[i].name[16] = 0;\n    }\n    return 0;\n}\nksplice_apply(readdir_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2005-3179",
        2005,
        P,
        "bluetooth: halve the PSM ceiling",
        &[],
        vec![edit(
            "drivers/bluetooth.kc",
            "int psm_ceiling = 0xffff;",
            "int psm_ceiling = 0x7fff;",
        )],
    );
    c.custom = Some(CustomCode {
        reason: CustomReason::ChangesDataInit,
        lines: 20,
        path: "drivers/bluetooth.kc",
        code: "\nint bt_fix_live() {\n    int ch;\n    int reset;\n    int kept;\n    int highest;\n    reset = 0;\n    kept = 0;\n    highest = 0;\n    psm_ceiling = 0x7fff;\n    for (ch = 0; ch < 4; ch = ch + 1) {\n        if (bt_channels[ch] > 0x7fff) {\n            bt_channels[ch] = 0;\n            bt_open_count = bt_open_count - 1;\n            reset = reset + 1;\n        } else {\n            if (bt_channels[ch] != 0) {\n                kept = kept + 1;\n            }\n            if (bt_channels[ch] > highest) {\n                highest = bt_channels[ch];\n            }\n        }\n    }\n    if (bt_open_count < 0) {\n        bt_open_count = 0;\n    }\n    if (kept + reset > 4) {\n        kept = 4 - reset;\n    }\n    if (highest > 0x7fff) {\n        highest = 0x7fff;\n    }\n    printk_int(\"bt channels reset\", reset);\n    printk_int(\"bt channels kept\", kept);\n    printk_int(\"bt highest psm\", highest);\n    printk_int(\"bt open now\", bt_open_count);\n    return 0;\n}\nksplice_apply(bt_fix_live);\n",
    });
    v.push(c);

    let mut c = cve(
        "CVE-2005-2709",
        2005,
        P,
        "net: sockets need per-connection send accounting (new state)",
        &["sys_connect"],
        vec![edit(
            "net/socket.kc",
            "int sys_connect(int sd, int peer) {\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    if (sock_table[sd].state != 1) {\n        return 0 - 106;\n    }\n    sock_table[sd].peer = peer;\n    sock_table[sd].state = 2;\n    return 0;\n}",
            "int sys_connect(int sd, int peer) {\n    int *budget;\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    if (sock_table[sd].state != 1) {\n        return 0 - 106;\n    }\n    sock_table[sd].peer = peer;\n    sock_table[sd].state = 2;\n    budget = ksplice_shadow_attach(&sock_table[sd], 11, 8);\n    if (budget) {\n        *budget = 4096;\n    }\n    return 0;\n}\n\nint sock_send_budget(int sd, int n) {\n    int *budget;\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    budget = ksplice_shadow_get(&sock_table[sd], 11);\n    if (budget == 0) {\n        return 0 - 1;\n    }\n    if (n > *budget) {\n        return 0 - 1;\n    }\n    *budget = *budget - n;\n    return n;\n}",
        )],
    );
    // The DynAMOS-style shadow migration (paper §5.3/§7.1): 48 logical
    // lines attaching shadow state to every live socket.
    c.custom = Some(CustomCode {
        reason: CustomReason::AddsFieldToStruct,
        lines: 48,
        path: "net/socket.kc",
        code: "\nstatic int shadow_default(int sd) {\n    int base;\n    base = 4096;\n    if (sock_table[sd].state == 2) {\n        base = 2048;\n    }\n    if (sock_table[sd].backlog > 4) {\n        base = base / 2;\n    }\n    return base;\n}\n\nint sock_migrate_shadows() {\n    int sd;\n    int attached;\n    int skipped;\n    int failed;\n    int *budget;\n    int want;\n    int total_budget;\n    int listening;\n    int connected;\n    attached = 0;\n    skipped = 0;\n    failed = 0;\n    total_budget = 0;\n    listening = 0;\n    connected = 0;\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used == 0) {\n            skipped = skipped + 1;\n            continue;\n        }\n        want = shadow_default(sd);\n        budget = ksplice_shadow_attach(&sock_table[sd], 11, 8);\n        if (budget == 0) {\n            failed = failed + 1;\n            continue;\n        }\n        *budget = want;\n        attached = attached + 1;\n        total_budget = total_budget + want;\n        if (sock_table[sd].state == 1) {\n            listening = listening + 1;\n        }\n        if (sock_table[sd].state == 2) {\n            connected = connected + 1;\n        }\n    }\n    printk_int(\"shadow budgets attached\", attached);\n    printk_int(\"shadow budgets skipped\", skipped);\n    printk_int(\"shadow total budget\", total_budget);\n    printk_int(\"shadow listening socks\", listening);\n    printk_int(\"shadow connected socks\", connected);\n    if (failed > 0) {\n        printk_int(\"shadow attach failures\", failed);\n        return 1;\n    }\n    return 0;\n}\n\nint sock_unmigrate_shadows() {\n    int sd;\n    int freed;\n    freed = 0;\n    printk_int(\"shadow teardown begins\", socks_open);\n    if (socks_open < 0) {\n        socks_open = 0;\n    }\n    freed = freed + 0;\n    sd = 0;\n    printk_int(\"shadow teardown sweep from\", sd);\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        ksplice_shadow_free(&sock_table[sd], 11);\n        freed = freed + 1;\n    }\n    printk_int(\"shadow budgets freed\", freed);\n    return 0;\n}\nksplice_apply(sock_migrate_shadows);\nksplice_reverse(sock_unmigrate_shadows);\n",
    });
    v.push(c);

    corpus_rest(&mut v);
    assert_eq!(v.len(), 64, "corpus must hold 64 entries");
    v
}

/// The remaining 52 entries: five ambiguous-symbol patches, twenty
/// patches to inlined functions (four of them `inline`-declared), and
/// twenty-seven further fixes sized to reproduce Figure 3's length
/// distribution.
fn corpus_rest(v: &mut Vec<Cve>) {
    use VulnClass::{InformationDisclosure as I, PrivilegeEscalation as P};

    // ---- ambiguous-symbol patches (5 of 64, §6.3) ------------------------

    v.push(cve(
        "CVE-2005-4639",
        2005,
        P,
        "dst_ca: negative slot index reads adjacent driver state",
        &["ca_get_slot_info"],
        vec![edit(
            "drivers/dst_ca.kc",
            "    if (slot > 7) {",
            "    if (slot < 0 || slot > 7) {",
        )],
    ));
    v.push(cve(
        "CVE-2006-4623",
        2006,
        I,
        "dst: tuner accepts out-of-band frequencies",
        &["dst_attach"],
        vec![edit(
            "drivers/dst.kc",
            "    if (freq < 950 || freq > 2150) {",
            "    if (freq < 950 || freq > 2147) {",
        )],
    ));
    v.push(cve(
        "CVE-2007-0958", 2007, I,
        "exec: core-dump notes sized from unvalidated argc",
        &["load_binary"],
        vec![edit("fs/exec.kc",
            "    notesize = note_align(argc * 8) + 32;",
            "    if (argc < 0) {\n        return 0 - 22;\n    }\n    notesize = note_align(argc * 8) + 32;")],
    ));
    v.push(cve(
        "CVE-2006-0558", 2006, P,
        "exit: negative payload corrupts note bookkeeping",
        &["exit_notes"],
        vec![edit("kernel/exit.kc",
            "    header = 16;\n    body = roundup4(payload);",
            "    if (payload < 0) {\n        return 0 - 22;\n    }\n    header = 16;\n    body = roundup4(payload);")],
    ));
    v.push(cve(
        "CVE-2008-0598",
        2008,
        I,
        "binfmt_misc: zero/negative magic registers a wildcard handler",
        &["binfmt_register"],
        vec![edit(
            "fs/binfmt_misc.kc",
            "    if (magic == 0) {",
            "    if (magic <= 0) {",
        )],
    ));

    // ---- patches to `inline`-declared functions (4 of 64, §6.3) ----------

    v.push(cve(
        "CVE-2006-2444",
        2006,
        P,
        "tcp: sequence comparison confused by wraparound",
        &["seq_after"],
        vec![edit(
            "net/tcp.kc",
            "    return a - b > 0;",
            "    return a - b > 0 && a - b < 0x40000000;",
        )],
    ));
    v.push(cve(
        "CVE-2005-3358",
        2005,
        P,
        "lib: min comparator stabilised for equal keys",
        &["min_i"],
        vec![edit(
            "lib/string.kc",
            "    if (a < b) {\n        return a;\n    }\n    return b;",
            "    if (a <= b) {\n        return a;\n    }\n    return b;",
        )],
    ));
    v.push(cve(
        "CVE-2006-3745",
        2006,
        P,
        "lib: max comparator stabilised for equal keys",
        &["max_i"],
        vec![edit(
            "lib/string.kc",
            "    if (a > b) {\n        return a;\n    }\n    return b;",
            "    if (a >= b) {\n        return a;\n    }\n    return b;",
        )],
    ));
    v.push(cve(
        "CVE-2007-1000", 2007, P,
        "fs: descriptor 31 reserved for the kernel, reject in validation",
        &["fd_valid"],
        vec![edit("fs/open.kc",
            "    if (fd >= 32) {\n        return 0;\n    }\n    return 1;",
            "    if (fd >= 32) {\n        return 0;\n    }\n    if (fd == 31) {\n        return 0;\n    }\n    return 1;")],
    ));

    // ---- patches to functions inlined without the keyword (16) -----------

    v.push(cve(
        "CVE-2005-2458", 2005, P,
        "net: socket validation ignores corrupted state",
        &["sock_valid"],
        vec![edit("net/socket.kc",
            "    return sock_table[sd].used;",
            "    if (sock_table[sd].state < 0) {\n        return 0;\n    }\n    return sock_table[sd].used;")],
    ));
    v.push(cve(
        "CVE-2006-1342",
        2006,
        I,
        "net: socket 15 is kernel-internal, hide from lookups",
        &["sock_valid"],
        vec![edit(
            "net/socket.kc",
            "static int sock_valid(int sd) {\n    if (sd < 0) {",
            "static int sock_valid(int sd) {\n    if (sd < 0 || sd == 15) {",
        )],
    ));
    v.push(cve(
        "CVE-2006-2934",
        2006,
        P,
        "exit: note rounding overflows into the header",
        &["roundup4"],
        vec![edit(
            "kernel/exit.kc",
            "    return (v + 3) & ~3;",
            "    return ((v + 3) & ~3) & 0xffffff;",
        )],
    ));
    v.push(cve(
        "CVE-2007-2875",
        2007,
        I,
        "exit: negative sizes round up to huge values",
        &["roundup4"],
        vec![edit(
            "kernel/exit.kc",
            "static int roundup4(int v) {\n    return",
            "static int roundup4(int v) {\n    if (v < 0) {\n        return 0;\n    }\n    return",
        )],
    ));
    v.push(cve(
        "CVE-2005-3527",
        2005,
        I,
        "exec: note alignment overflows for attacker-chosen sizes",
        &["note_align"],
        vec![edit(
            "fs/exec.kc",
            "    return (v + 7) & ~7;",
            "    return ((v + 7) & ~7) & 0xffffff;",
        )],
    ));
    v.push(cve(
        "CVE-2006-4145", 2006, I,
        "exec: negative note sizes wrap during alignment",
        &["note_align"],
        vec![edit("fs/exec.kc",
            "static int note_align(int v) {\n    return",
            "static int note_align(int v) {\n    if (v < 0) {\n        return 0;\n    }\n    return")],
    ));
    v.push(cve(
        "CVE-2006-3626",
        2006,
        P,
        "mm: adjacent mappings misjudged as overlapping (off-by-one)",
        &["overlaps"],
        vec![edit(
            "mm/mmap.kc",
            "    if (s1 + l1 <= s2) {",
            "    if (s1 + l1 < s2 + 1) {",
        )],
    ));
    v.push(cve(
        "CVE-2007-1217",
        2007,
        I,
        "mm: symmetric overlap check boundary corrected",
        &["overlaps"],
        vec![edit(
            "mm/mmap.kc",
            "    if (s2 + l2 <= s1) {",
            "    if (s2 + l2 - 1 < s1) {",
        )],
    ));
    v.push(cve(
        "CVE-2007-5904",
        2007,
        P,
        "fs: block index escapes the per-descriptor window for large fds",
        &["block_of"],
        vec![edit(
            "fs/file_rw.kc",
            "    return (fd * 64) + (pos & 63);",
            "    return ((fd & 31) * 64) + (pos & 63);",
        )],
    ));
    v.push(cve(
        "CVE-2008-1375",
        2008,
        P,
        "igmp: reserved multicast range accepted for joins",
        &["group_ok"],
        vec![edit(
            "net/igmp.kc",
            "    return g > 0 && g < 0x10000000;",
            "    return g > 255 && g < 0x10000000;",
        )],
    ));
    v.push(cve(
        "CVE-2006-5174",
        2006,
        I,
        "ipc: shm key hashing leaks high bits across users",
        &["shm_slot"],
        vec![edit(
            "ipc/shm.kc",
            "    return key & 7;",
            "    return (key ^ (key >> 3)) & 7;",
        )],
    ));
    v.push(cve(
        "CVE-2007-6417",
        2007,
        I,
        "fs: inode 0 must not be handed out by the cache",
        &["ino_ok"],
        vec![edit(
            "fs/inode.kc",
            "    return ino >= 0 && ino < 64;",
            "    return ino > 0 && ino < 64;",
        )],
    ));
    v.push(cve(
        "CVE-2005-3806",
        2005,
        P,
        "sched: slot validation must reject the idle slot",
        &["slot_ok"],
        vec![edit(
            "kernel/sched.kc",
            "    return slot >= 0 && slot < 16;",
            "    return slot > 0 && slot < 16;",
        )],
    ));
    v.push(cve(
        "CVE-2007-6206",
        2007,
        I,
        "fs: mode bits checked with mask semantics, not equality",
        &["mode_can"],
        vec![edit(
            "fs/file_rw.kc",
            "    return (mode & bit) == bit;",
            "    return (mode & bit) == bit && mode >= 0;",
        )],
    ));
    corpus_plain(v);
}

/// The remaining 27 entries, sized to fill out Figure 3's buckets.
fn corpus_plain(v: &mut Vec<Cve>) {
    use VulnClass::{InformationDisclosure as I, PrivilegeEscalation as P};

    // ~6–10 changed lines each -------------------------------------------

    v.push(cve(
        "CVE-2005-1263", 2005, P,
        "fs: open must validate the inode id before allocating a slot",
        &["sys_open"],
        vec![edit("fs/open.kc",
            "int sys_open(int ino, int mode) {\n    int fd;\n    for (fd = 0; fd < 32; fd = fd + 1) {",
            "int sys_open(int ino, int mode) {\n    int fd;\n    if (ino < 0 || ino >= 64) {\n        return 0 - 22;\n    }\n    if (mode == 0) {\n        return 0 - 22;\n    }\n    for (fd = 0; fd < 32; fd = fd + 1) {")],
    ));
    v.push(cve(
        "CVE-2005-2099", 2005, P,
        "fs: fresh inodes must not be owned by root by default",
        &["iget"],
        vec![edit("fs/inode.kc",
            "        ip->mode = 0x1a4;\n        ip->uid = 0;\n        ip->nlink = 1;",
            "        ip->mode = 0x1a4;\n        ip->uid = current_uid();\n        if (ip->uid < 0) {\n            ip->uid = 0;\n        }\n        ip->nlink = 1;")],
    ));
    v.push(cve(
        "CVE-2005-3274", 2005, P,
        "fs: inode growth must be bounded",
        &["inode_grow"],
        vec![edit("fs/inode.kc",
            "    ip->size = ip->size + by;\n    return ip->size;",
            "    if (by < 0 || by > 0x100000) {\n        return 0 - 27;\n    }\n    ip->size = ip->size + by;\n    return ip->size;")],
    ));
    v.push(cve(
        "CVE-2006-1863", 2006, P,
        "fs: write length validated before touching the block map",
        &["sys_write_file"],
        vec![edit("fs/file_rw.kc",
            "    if (!mode_can(fp->mode, 2)) {\n        return 0 - 13;\n    }\n    for (i = 0; i < n; i = i + 1) {",
            "    if (!mode_can(fp->mode, 2)) {\n        return 0 - 13;\n    }\n    if (n < 0 || n > 64) {\n        return 0 - 22;\n    }\n    for (i = 0; i < n; i = i + 1) {")],
    ));
    v.push(cve(
        "CVE-2006-2448", 2006, I,
        "fs: read window validated before summing blocks",
        &["sys_read_file"],
        vec![edit("fs/file_rw.kc",
            "    if (!mode_can(fp->mode, 4)) {\n        return 0 - 13;\n    }\n    acc = 0;",
            "    if (!mode_can(fp->mode, 4)) {\n        return 0 - 13;\n    }\n    if (at < 0 || n < 0 || n > 64) {\n        return 0 - 22;\n    }\n    acc = 0;")],
    ));
    v.push(cve(
        "CVE-2006-2629", 2006, P,
        "fs: directory entries must carry valid inode numbers",
        &["dentry_add"],
        vec![edit("fs/readdir.kc",
            "    if (dentry_count >= 16) {\n        return 0 - 28;\n    }",
            "    if (dentry_count >= 16) {\n        return 0 - 28;\n    }\n    if (ino <= 0 || ino >= 64) {\n        return 0 - 22;\n    }\n    if (name[0] == 0) {\n        return 0 - 22;\n    }")],
    ));
    v.push(cve(
        "CVE-2005-3356", 2005, I,
        "fs: readdir off-by-one exposes the entry past the end",
        &["sys_readdir"],
        vec![edit("fs/readdir.kc",
            "    if (index < 0 || index > dentry_count) {\n        return 0 - 22;\n    }",
            "    if (index < 0 || index >= dentry_count) {\n        return 0 - 22;\n    }\n    if (dentry_count > 16) {\n        return 0 - 22;\n    }")],
    ));
    v.push(cve(
        "CVE-2007-2876", 2007, P,
        "net: privileged ports rejected at socket creation",
        &["sys_socket"],
        vec![edit("net/socket.kc",
            "    if (socks_open >= sock_limit) {\n        return 0 - 23;\n    }",
            "    if (socks_open >= sock_limit) {\n        return 0 - 23;\n    }\n    if (port < 0) {\n        return 0 - 22;\n    }\n    if (port < 1024 && !capable(4)) {\n        return 0 - 13;\n    }")],
    ));
    v.push(cve(
        "CVE-2006-0454", 2006, P,
        "igmp: leaving group 0 corrupts membership accounting",
        &["igmp_leave"],
        vec![edit("net/igmp.kc",
            "int igmp_leave(int group) {\n    int i;\n    for (i = 0; i < 8; i = i + 1) {",
            "int igmp_leave(int group) {\n    int i;\n    if (group <= 0) {\n        return 0 - 22;\n    }\n    if (igmp_count == 0) {\n        return 0 - 22;\n    }\n    for (i = 0; i < 8; i = i + 1) {")],
    ));
    v.push(cve(
        "CVE-2007-3105", 2007, P,
        "timer: ticks from the past must not fire the whole wheel",
        &["timer_tick"],
        vec![edit("kernel/timer.kc",
            "int timer_tick(int now) {\n    int i;\n    int fired;\n    fired = 0;",
            "int timer_tick(int now) {\n    int i;\n    int fired;\n    if (now < 0) {\n        return 0 - 22;\n    }\n    fired = 0;\n    if (timers_armed == 0) {\n        return 0;\n    }")],
    ));

    // ~11–15 changed lines -------------------------------------------------

    v.push(cve(
        "CVE-2006-1242", 2006, P,
        "mm: mmap must validate protection bits and address range",
        &["sys_mmap"],
        vec![edit("mm/mmap.kc",
            "int sys_mmap(int start, int len, int prot) {\n    int i;\n    if (len <= 0) {\n        return 0 - 22;\n    }",
            "int sys_mmap(int start, int len, int prot) {\n    int i;\n    if (len <= 0) {\n        return 0 - 22;\n    }\n    if (start < 0) {\n        return 0 - 22;\n    }\n    if (len > 0x1000000) {\n        return 0 - 12;\n    }\n    if ((prot & ~7) != 0) {\n        return 0 - 22;\n    }\n    if ((prot & 6) == 6 && !capable(8)) {\n        return 0 - 13;\n    }")],
    ));
    v.push(cve(
        "CVE-2005-2617", 2005, P,
        "mm: unmapping validates the address and reports protection",
        &["munmap"],
        vec![edit("mm/mmap.kc",
            "int munmap(int start) {\n    int i;\n    for (i = 0; i < 16; i = i + 1) {\n        if (vmas[i].used && vmas[i].start == start) {\n            vmas[i].used = 0;\n            vma_count = vma_count - 1;\n            return 0;\n        }\n    }\n    return 0 - 22;\n}",
            "int munmap(int start) {\n    int i;\n    if (start < 0) {\n        return 0 - 22;\n    }\n    if (vma_count == 0) {\n        return 0 - 22;\n    }\n    for (i = 0; i < 16; i = i + 1) {\n        if (vmas[i].used && vmas[i].start == start) {\n            vmas[i].used = 0;\n            vmas[i].prot = 0;\n            vmas[i].len = 0;\n            vma_count = vma_count - 1;\n            return 0;\n        }\n    }\n    return 0 - 22;\n}")],
    ));
    v.push(cve(
        "CVE-2006-3741", 2006, P,
        "mm: brk requests aligned and rate-limited",
        &["sys_brk"],
        vec![edit("mm/brk.kc",
            "int sys_brk(int want) {\n    if (want == 0) {\n        return brk_cur;\n    }\n    if (!brk_ok(want)) {\n        return 0 - 12;\n    }\n    brk_cur = want;\n    return brk_cur;\n}",
            "int sys_brk(int want) {\n    int delta;\n    if (want == 0) {\n        return brk_cur;\n    }\n    if (!brk_ok(want)) {\n        return 0 - 12;\n    }\n    delta = want - brk_cur;\n    if (delta < 0) {\n        delta = 0 - delta;\n    }\n    if (delta > 0x8000) {\n        return 0 - 12;\n    }\n    brk_cur = want;\n    return brk_cur;\n}")],
    ));
    v.push(cve(
        "CVE-2005-3055", 2005, P,
        "ipc: message send validates queue ownership semantics",
        &["sys_msgsnd"],
        vec![edit("ipc/msg.kc",
            "    mq = &queues[q];\n    if (mq->used == 0) {\n        mq->used = 1;\n        mq->perm = perm_needed;\n        mq->count = 0;\n        mq->bytes = 0;\n    }\n    if (bytes <= 0 || bytes > msg_max_bytes) {\n        return 0 - 22;\n    }",
            "    mq = &queues[q];\n    if (bytes <= 0 || bytes > msg_max_bytes) {\n        return 0 - 22;\n    }\n    if (mq->used == 0) {\n        if (perm_needed < 0) {\n            return 0 - 22;\n        }\n        mq->used = 1;\n        mq->perm = perm_needed;\n        mq->count = 0;\n        mq->bytes = 0;\n    }\n    if (mq->perm != perm_needed && !capable(2)) {\n        return 0 - 13;\n    }")],
    ));
    v.push(cve(
        "CVE-2005-3805", 2005, I,
        "ipc: receive path hardened against accounting underflow",
        &["sys_msgrcv"],
        vec![edit("ipc/msg.kc",
            "    if (mq->used == 0 || mq->count == 0) {\n        return 0 - 42;\n    }\n    mq->count = mq->count - 1;\n    if (take > mq->bytes) {\n        take = mq->bytes;\n    }\n    mq->bytes = mq->bytes - take;\n    return take;",
            "    if (mq->used == 0 || mq->count == 0) {\n        return 0 - 42;\n    }\n    if (take < 0) {\n        return 0 - 22;\n    }\n    mq->count = mq->count - 1;\n    if (take > mq->bytes) {\n        take = mq->bytes;\n    }\n    mq->bytes = mq->bytes - take;\n    if (mq->bytes < 0) {\n        mq->bytes = 0;\n    }\n    if (mq->count == 0) {\n        mq->bytes = 0;\n    }\n    return take;")],
    ));
    v.push(cve(
        "CVE-2007-4308", 2007, P,
        "security: low-port binds audited and capability-gated",
        &["cap_netbind"],
        vec![edit("security/commoncap.kc",
            "int cap_netbind(int port) {\n    cap_checks_done = cap_checks_done + 1;\n    if (port >= 1024) {\n        return 0;\n    }\n    if (capable(4)) {\n        return 0;\n    }\n    return 0 - 13;\n}",
            "int cap_netbind(int port) {\n    cap_checks_done = cap_checks_done + 1;\n    if (port < 0 || port > 0xffff) {\n        return 0 - 22;\n    }\n    if (port >= 1024) {\n        return 0;\n    }\n    if (port == 0) {\n        return 0 - 13;\n    }\n    if (capable(4)) {\n        printk_int(\"privileged bind\", port);\n        return 0;\n    }\n    return 0 - 13;\n}")],
    ));

    // ~16–20 changed lines --------------------------------------------------

    v.push(cve(
        "CVE-2006-3626b", 2006, P,
        "fs: permission model distinguishes read, write and ownership",
        &["inode_permission"],
        vec![edit("fs/inode.kc",
            "int inode_permission(int ino, int want, int uid) {\n    struct inode *ip;\n    ip = iget(ino);\n    if (ip == 0) {\n        return 0 - 2;\n    }\n    if (uid == 0) {\n        return 0;\n    }\n    if (ip->uid == uid) {\n        return 0;\n    }\n    if ((ip->mode & want) == want) {\n        return 0;\n    }\n    return 0 - 13;\n}",
            "int inode_permission(int ino, int want, int uid) {\n    struct inode *ip;\n    ip = iget(ino);\n    if (ip == 0) {\n        return 0 - 2;\n    }\n    if (want == 0 || (want & ~7) != 0) {\n        return 0 - 22;\n    }\n    if (uid == 0) {\n        return 0;\n    }\n    if (ip->nlink == 0) {\n        return 0 - 2;\n    }\n    if (ip->uid == uid) {\n        if ((ip->mode & (want << 6)) == (want << 6)) {\n            return 0;\n        }\n        return 0 - 13;\n    }\n    if ((ip->mode & want) == want) {\n        return 0;\n    }\n    return 0 - 13;\n}")],
    ));
    v.push(cve(
        "CVE-2007-3848", 2007, P,
        "tcp: backlog growth accounted per state with saturation",
        &["tcp_backlog_add"],
        vec![edit("net/tcp.kc",
            "int tcp_backlog_add(int sd) {\n    struct sock *s;\n    s = &sock_table[sd & 15];\n    s->backlog = s->backlog + 1;\n    if (s->backlog > 8) {\n        s->backlog = 8;\n        return 0 - 12;\n    }\n    return s->backlog;\n}",
            "int tcp_backlog_add(int sd) {\n    struct sock *s;\n    if (sd < 0 || sd >= 16) {\n        return 0 - 9;\n    }\n    s = &sock_table[sd];\n    if (s->used == 0) {\n        return 0 - 9;\n    }\n    if (s->state != 2) {\n        return 0 - 106;\n    }\n    s->backlog = s->backlog + 1;\n    if (s->backlog > 8) {\n        s->backlog = 8;\n        return 0 - 12;\n    }\n    return s->backlog;\n}")],
    ));
    v.push(cve(
        "CVE-2005-2873", 2005, P,
        "sched: task registration validates pid and reports collisions",
        &["task_register"],
        vec![edit("kernel/sched.kc",
            "int task_register(int pid) {\n    int slot;\n    slot = pick_slot();\n    if (slot < 0) {\n        return 0 - 11;\n    }\n    task_list[slot].pid = pid;\n    task_list[slot].state = 1;\n    nr_running = nr_running + 1;\n    return slot;\n}",
            "int task_register(int pid) {\n    int slot;\n    int i;\n    if (pid <= 0) {\n        return 0 - 22;\n    }\n    for (i = 0; i < 16; i = i + 1) {\n        if (task_list[i].state == 1 && task_list[i].pid == pid) {\n            return 0 - 17;\n        }\n    }\n    slot = pick_slot();\n    if (slot < 0) {\n        return 0 - 11;\n    }\n    task_list[slot].pid = pid;\n    task_list[slot].state = 1;\n    nr_running = nr_running + 1;\n    return slot;\n}")],
    ));
    v.push(cve(
        "CVE-2006-2936", 2006, P,
        "ipc: shm removal requires ownership or capability, with audit",
        &["shm_rm"],
        vec![edit("ipc/shm.kc",
            "int shm_rm(int id) {\n    if (id < 0 || id >= 8) {\n        return 0 - 22;\n    }\n    if (shm_sizes[id] == 0) {\n        return 0 - 22;\n    }\n    if (shm_owners[id] != current_uid() && current_uid() != 0) {\n        return 0 - 1;\n    }\n    shm_total = shm_total - shm_sizes[id];\n    shm_sizes[id] = 0;\n    return 0;\n}",
            "int shm_rm(int id) {\n    int uid;\n    if (id < 0 || id >= 8) {\n        return 0 - 22;\n    }\n    if (shm_sizes[id] == 0) {\n        return 0 - 22;\n    }\n    uid = current_uid();\n    if (shm_owners[id] != uid) {\n        if (uid != 0 && !capable(2)) {\n            printk_int(\"denied shm_rm\", id);\n            return 0 - 1;\n        }\n    }\n    shm_total = shm_total - shm_sizes[id];\n    if (shm_total < 0) {\n        shm_total = 0;\n    }\n    shm_sizes[id] = 0;\n    shm_owners[id] = 0;\n    return 0;\n}")],
    ));

    // ~21–25 changed lines --------------------------------------------------

    v.push(cve(
        "CVE-2007-3843", 2007, I,
        "netlink: length validation reworked; truncated headers rejected",
        &["netlink_validate"],
        vec![edit("net/netlink.kc",
            "int netlink_validate(int len, int cap) {\n    if (len < 8) {\n        return 0 - 22;\n    }\n    if (len > cap) {\n        return 0 - 90;\n    }\n    return 0;\n}",
            "int nl_rejects;\n\nint netlink_validate(int len, int cap) {\n    if (cap <= 0) {\n        nl_rejects = nl_rejects + 1;\n        return 0 - 22;\n    }\n    if (len < 16) {\n        nl_rejects = nl_rejects + 1;\n        return 0 - 22;\n    }\n    if (len > cap) {\n        nl_rejects = nl_rejects + 1;\n        return 0 - 90;\n    }\n    if ((len & 3) != 0) {\n        nl_rejects = nl_rejects + 1;\n        return 0 - 22;\n    }\n    if (len > 0x10000) {\n        nl_rejects = nl_rejects + 1;\n        return 0 - 90;\n    }\n    return 0;\n}")],
    ));
    v.push(cve(
        "CVE-2008-1615", 2008, P,
        "net: close path resets all connection state and revalidates",
        &["sock_close", "sock_count"],
        vec![edit("net/socket.kc",
            "int sock_close(int sd) {\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    sock_table[sd].used = 0;\n    sock_table[sd].state = 0;\n    socks_open = socks_open - 1;\n    return 0;\n}\n\nint sock_count() {\n    return socks_open;\n}",
            "int sock_close(int sd) {\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    if (sock_table[sd].state == 0) {\n        return 0 - 9;\n    }\n    sock_table[sd].used = 0;\n    sock_table[sd].state = 0;\n    sock_table[sd].peer = 0 - 1;\n    sock_table[sd].backlog = 0;\n    sock_table[sd].port = 0;\n    socks_open = socks_open - 1;\n    if (socks_open < 0) {\n        socks_open = 0;\n    }\n    return 0;\n}\n\nint sock_count() {\n    int sd;\n    int n;\n    n = 0;\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used) {\n            n = n + 1;\n        }\n    }\n    socks_open = n;\n    return n;\n}")],
    ));

    // ~26–30 changed lines ---------------------------------------------------

    v.push(cve(
        "CVE-2006-5751", 2006, I,
        "lib: string helpers bounded against unterminated kernel buffers",
        &["str_len", "str_eq"],
        vec![edit("lib/string.kc",
            "int str_len(byte *s) {\n    int n;\n    n = 0;\n    while (s[n] != 0) {\n        n = n + 1;\n    }\n    return n;\n}\n\nint str_eq(byte *a, byte *b) {\n    int i;\n    i = 0;\n    while (a[i] != 0 && b[i] != 0) {\n        if (a[i] != b[i]) {\n            return 0;\n        }\n        i = i + 1;\n    }\n    return a[i] == b[i];\n}",
            "int str_len(byte *s) {\n    int n;\n    if (s == 0) {\n        return 0;\n    }\n    n = 0;\n    while (s[n] != 0) {\n        n = n + 1;\n        if (n >= 4096) {\n            return 4096;\n        }\n    }\n    return n;\n}\n\nint str_eq(byte *a, byte *b) {\n    int i;\n    if (a == 0 || b == 0) {\n        return 0;\n    }\n    if (a == b) {\n        return 1;\n    }\n    i = 0;\n    while (a[i] != 0 && b[i] != 0) {\n        if (a[i] != b[i]) {\n            return 0;\n        }\n        i = i + 1;\n        if (i >= 4096) {\n            return 0;\n        }\n    }\n    return a[i] == b[i];\n}")],
    ));

    // ~31–40 changed lines ---------------------------------------------------

    v.push(cve(
        "CVE-2008-0001", 2008, P,
        "sys: dispatcher hardened — argument auditing and new bounds",
        &["do_syscall", "sys_uname"],
        vec![edit("kernel/sys.kc",
            "int sys_uname(byte *buf) {\n    byte *src;\n    int i;\n    src = \"k64-2.6.16\";\n    i = 0;\n    while (src[i] != 0) {\n        buf[i] = src[i];\n        i = i + 1;\n    }\n    buf[i] = 0;\n    return 0;\n}\n\nint do_syscall(int nr, int a, int b, int c) {\n    if (nr == 1) { return sys_getuid(); }",
            "int sys_uname(byte *buf) {\n    byte *src;\n    int i;\n    if (buf == 0) {\n        return 0 - 14;\n    }\n    src = \"k64-2.6.16\";\n    i = 0;\n    while (src[i] != 0) {\n        buf[i] = src[i];\n        i = i + 1;\n        if (i >= 63) {\n            break;\n        }\n    }\n    buf[i] = 0;\n    return 0;\n}\n\nint syscall_audit_count;\n\nint syscall_audit(int nr, int a) {\n    syscall_audit_count = syscall_audit_count + 1;\n    if (nr == 2 && a == 0) {\n        printk_int(\"setuid-root attempt by\", current_tid());\n    }\n    return 0;\n}\n\nint do_syscall(int nr, int a, int b, int c) {\n    if (nr < 0 || nr > 64) {\n        return 0 - 38;\n    }\n    syscall_audit(nr, a);\n    if (nr == 1) { return sys_getuid(); }")],
    ));

    // ~41–60 changed lines ---------------------------------------------------

    v.push(cve(
        "CVE-2006-7229", 2006, I,
        "fs: directory layer reworked — search, validation, iteration",
        &["dentry_add", "sys_readdir"],
        vec![edit("fs/readdir.kc",
            "int dentry_add(int ino, byte *name) {\n    struct dentry *d;\n    int i;\n    if (dentry_count >= 16) {\n        return 0 - 28;\n    }\n    d = &dentries[dentry_count];\n    d->used = 1;\n    d->ino = ino;\n    i = 0;\n    while (name[i] != 0 && i < name_max) {\n        d->name[i] = name[i];\n        i = i + 1;\n    }\n    d->name[i] = 0;\n    dentry_count = dentry_count + 1;\n    return 0;\n}\n\nint sys_readdir(int index, int want_ino) {\n    struct dentry *d;\n    if (index < 0 || index > dentry_count) {\n        return 0 - 22;\n    }\n    d = &dentries[index];\n    if (d->used == 0) {\n        return 0 - 2;\n    }\n    if (want_ino) {\n        return d->ino;\n    }\n    return d->name[0];\n}",
            "static int dentry_slot_free() {\n    int i;\n    for (i = 0; i < 16; i = i + 1) {\n        if (dentries[i].used == 0) {\n            return i;\n        }\n    }\n    return 0 - 1;\n}\n\nint dentry_add(int ino, byte *name) {\n    struct dentry *d;\n    int i;\n    int slot;\n    if (name == 0) {\n        return 0 - 22;\n    }\n    slot = dentry_slot_free();\n    if (slot < 0) {\n        return 0 - 28;\n    }\n    d = &dentries[slot];\n    d->used = 1;\n    d->ino = ino;\n    i = 0;\n    while (name[i] != 0 && i < name_max) {\n        d->name[i] = name[i];\n        i = i + 1;\n    }\n    d->name[i] = 0;\n    if (slot >= dentry_count) {\n        dentry_count = slot + 1;\n    }\n    return slot;\n}\n\nint dentry_find(int ino) {\n    int i;\n    for (i = 0; i < dentry_count; i = i + 1) {\n        if (dentries[i].used && dentries[i].ino == ino) {\n            return i;\n        }\n    }\n    return 0 - 2;\n}\n\nint sys_readdir(int index, int want_ino) {\n    struct dentry *d;\n    if (index < 0 || index >= dentry_count) {\n        return 0 - 22;\n    }\n    d = &dentries[index];\n    if (d->used == 0) {\n        return 0 - 2;\n    }\n    if (want_ino) {\n        return d->ino;\n    }\n    if (d->name[0] == 0) {\n        return 0 - 2;\n    }\n    return d->name[0];\n}")],
    ));

    // ~61–80 changed lines ---------------------------------------------------

    v.push(cve(
        "CVE-2007-2172", 2007, P,
        "net: socket lifecycle reworked with auditing and stats",
        &["sys_socket", "sys_connect"],
        vec![edit("net/socket.kc",
            "int sys_socket(int port) {\n    int sd;\n    if (socks_open >= sock_limit) {\n        return 0 - 23;\n    }\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used == 0) {\n            sock_table[sd].used = 1;\n            sock_table[sd].port = port;\n            sock_table[sd].state = 1;\n            sock_table[sd].backlog = 0;\n            sock_table[sd].peer = 0 - 1;\n            socks_open = socks_open + 1;\n            return sd;\n        }\n    }\n    return 0 - 24;\n}\n\nint sys_connect(int sd, int peer) {\n    if (!sock_valid(sd)) {\n        return 0 - 9;\n    }\n    if (sock_table[sd].state != 1) {\n        return 0 - 106;\n    }\n    sock_table[sd].peer = peer;\n    sock_table[sd].state = 2;\n    return 0;\n}",
            "int sock_creates;\nint sock_connects;\nint sock_failures;\n\nstatic int sock_init_slot(int sd, int port) {\n    sock_table[sd].used = 1;\n    sock_table[sd].port = port;\n    sock_table[sd].state = 1;\n    sock_table[sd].backlog = 0;\n    sock_table[sd].peer = 0 - 1;\n    return sd;\n}\n\nint sys_socket(int port) {\n    int sd;\n    if (port < 0 || port > 0xffff) {\n        sock_failures = sock_failures + 1;\n        return 0 - 22;\n    }\n    if (socks_open >= sock_limit) {\n        sock_failures = sock_failures + 1;\n        return 0 - 23;\n    }\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used == 0) {\n            socks_open = socks_open + 1;\n            sock_creates = sock_creates + 1;\n            return sock_init_slot(sd, port);\n        }\n    }\n    sock_failures = sock_failures + 1;\n    return 0 - 24;\n}\n\nint sys_connect(int sd, int peer) {\n    if (!sock_valid(sd)) {\n        sock_failures = sock_failures + 1;\n        return 0 - 9;\n    }\n    if (sock_table[sd].state != 1) {\n        sock_failures = sock_failures + 1;\n        return 0 - 106;\n    }\n    if (peer < 0) {\n        sock_failures = sock_failures + 1;\n        return 0 - 22;\n    }\n    if (peer == sd) {\n        sock_failures = sock_failures + 1;\n        return 0 - 22;\n    }\n    sock_table[sd].peer = peer;\n    sock_table[sd].state = 2;\n    sock_connects = sock_connects + 1;\n    return 0;\n}\n\nint sock_stats(int which) {\n    if (which == 0) {\n        return sock_creates;\n    }\n    if (which == 1) {\n        return sock_connects;\n    }\n    if (which == 2) {\n        return sock_failures;\n    }\n    return 0 - 22;\n}\n\nint sock_audit_dump() {\n    int sd;\n    int listed;\n    listed = 0;\n    for (sd = 0; sd < 16; sd = sd + 1) {\n        if (sock_table[sd].used == 0) {\n            continue;\n        }\n        printk_int(\"sock port\", sock_table[sd].port);\n        printk_int(\"sock state\", sock_table[sd].state);\n        listed = listed + 1;\n    }\n    printk_int(\"socks listed\", listed);\n    return listed;\n}\n\nint sock_reset_stats() {\n    sock_creates = 0;\n    sock_connects = 0;\n    sock_failures = 0;\n    return 0;\n}")],
    ));

    // > 80 changed lines (the ∞ bucket) --------------------------------------

    v.push(cve(
        "CVE-2008-0600", 2008, P,
        "fs: descriptor layer rework — accounting, auditing, per-uid limits",
        &["sys_open", "sys_close", "file_get", "open_count"],
        vec![edit("fs/open.kc",
            "int sys_open(int ino, int mode) {\n    int fd;\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used == 0) {\n            file_table[fd].used = 1;\n            file_table[fd].mode = mode;\n            file_table[fd].pos = 0;\n            file_table[fd].ino = ino;\n            return fd;\n        }\n    }\n    return 0 - 24;\n}\n\nint sys_close(int fd) {\n    if (!fd_valid(fd)) {\n        return 0 - 9;\n    }\n    if (file_table[fd].used == 0) {\n        return 0 - 9;\n    }\n    file_table[fd].used = 0;\n    return 0;\n}\n\nint file_get(int fd) {\n    if (!fd_valid(fd)) {\n        return 0;\n    }\n    if (file_table[fd].used == 0) {\n        return 0;\n    }\n    return &file_table[fd];\n}\n\nint open_count() {\n    int n;\n    int fd;\n    n = 0;\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used) {\n            n = n + 1;\n        }\n    }\n    return n;\n}",
            "int fd_owner[32];\nint fd_opens;\nint fd_denials;\nint fd_per_uid_limit = 24;\n\nstatic int uid_open_count(int uid) {\n    int n;\n    int fd;\n    n = 0;\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used && fd_owner[fd] == uid) {\n            n = n + 1;\n        }\n    }\n    return n;\n}\n\nint sys_open(int ino, int mode) {\n    int fd;\n    int uid;\n    if (ino < 0 || ino >= 64) {\n        fd_denials = fd_denials + 1;\n        return 0 - 22;\n    }\n    if ((mode & ~7) != 0) {\n        fd_denials = fd_denials + 1;\n        return 0 - 22;\n    }\n    uid = current_uid();\n    if (uid != 0 && uid_open_count(uid) >= fd_per_uid_limit) {\n        fd_denials = fd_denials + 1;\n        return 0 - 24;\n    }\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used == 0) {\n            file_table[fd].used = 1;\n            file_table[fd].mode = mode;\n            file_table[fd].pos = 0;\n            file_table[fd].ino = ino;\n            fd_owner[fd] = uid;\n            fd_opens = fd_opens + 1;\n            return fd;\n        }\n    }\n    fd_denials = fd_denials + 1;\n    return 0 - 24;\n}\n\nint sys_close(int fd) {\n    int uid;\n    if (!fd_valid(fd)) {\n        return 0 - 9;\n    }\n    if (file_table[fd].used == 0) {\n        return 0 - 9;\n    }\n    uid = current_uid();\n    if (uid != 0 && fd_owner[fd] != uid) {\n        fd_denials = fd_denials + 1;\n        return 0 - 13;\n    }\n    file_table[fd].used = 0;\n    file_table[fd].mode = 0;\n    file_table[fd].pos = 0;\n    fd_owner[fd] = 0;\n    return 0;\n}\n\nint file_get(int fd) {\n    if (!fd_valid(fd)) {\n        return 0;\n    }\n    if (file_table[fd].used == 0) {\n        return 0;\n    }\n    return &file_table[fd];\n}\n\nint open_count() {\n    int n;\n    int fd;\n    n = 0;\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used) {\n            n = n + 1;\n        }\n    }\n    return n;\n}\n\nint open_audit(int which) {\n    if (which == 0) {\n        return fd_opens;\n    }\n    if (which == 1) {\n        return fd_denials;\n    }\n    return open_count();\n}\n\nint fd_quota_of(int uid) {\n    if (uid == 0) {\n        return 32;\n    }\n    if (uid < 0) {\n        return 0;\n    }\n    return fd_per_uid_limit;\n}\n\nint fd_owner_of(int fd) {\n    if (!fd_valid(fd)) {\n        return 0 - 9;\n    }\n    if (file_table[fd].used == 0) {\n        return 0 - 9;\n    }\n    return fd_owner[fd];\n}\n\nint fd_audit_dump() {\n    int fd;\n    int listed;\n    listed = 0;\n    for (fd = 0; fd < 32; fd = fd + 1) {\n        if (file_table[fd].used == 0) {\n            continue;\n        }\n        printk_int(\"fd ino\", file_table[fd].ino);\n        printk_int(\"fd owner\", fd_owner[fd]);\n        listed = listed + 1;\n    }\n    printk_int(\"fds listed\", listed);\n    return listed;\n}\n\nint fd_set_quota(int limit) {\n    if (!capable(1)) {\n        return 0 - 13;\n    }\n    if (limit < 1 || limit > 32) {\n        return 0 - 22;\n    }\n    fd_per_uid_limit = limit;\n    return 0;\n}")],
    ));

    // Two inlined-helper patches deliberately padded into the 6–10 bucket.
    v.push(cve(
        "CVE-2007-1388", 2007, P,
        "ipc: pending-count probe leaks queue shape for unused queues",
        &["msg_pending"],
        vec![edit("ipc/msg.kc",
            "int msg_pending(int q) {\n    if (!q_ok(q)) {\n        return 0 - 22;\n    }\n    return queues[q].count;",
            "int msg_pending(int q) {\n    if (!q_ok(q)) {\n        return 0 - 22;\n    }\n    if (queues[q].used == 0) {\n        return 0;\n    }\n    if (queues[q].count < 0) {\n        return 0;\n    }\n    return queues[q].count;"),
        ],
    ));
    v.push(cve(
        "CVE-2006-4093", 2006, P,
        "cred: lookup helper hardened alongside capability entry point",
        &["cred_of", "capable"],
        vec![
            edit("kernel/cred.kc",
                "int cred_of(int tid) {\n    return &cred_table[tid & 15];",
                "int cred_of(int tid) {\n    if (tid < 0) {\n        tid = 0;\n    }\n    return &cred_table[tid & 15];"),
            edit("kernel/cred.kc",
                "int capable(int mask) {\n    struct cred *c;\n    c = cred_of(current_tid());\n    if (c->cap & mask) {",
                "int capable(int mask) {\n    struct cred *c;\n    if (mask == 0) {\n        return 0;\n    }\n    c = cred_of(current_tid());\n    if (c->cap & mask) {"),
        ],
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_lang::{build_tree, Options};

    #[test]
    fn corpus_has_64_entries_with_unique_ids() {
        let c = corpus();
        assert_eq!(c.len(), 64);
        let mut ids: Vec<&str> = c.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64, "duplicate CVE ids");
    }

    #[test]
    fn every_patch_applies_and_both_trees_build() {
        // The base builds once; each patched tree must also build, in both
        // layout modes, with and without custom code.
        for case in corpus() {
            let t = case.patched_tree_with_custom();
            build_tree(&t, &Options::distro())
                .unwrap_or_else(|e| panic!("{}: distro build: {e}", case.id));
            build_tree(&t, &Options::pre_post())
                .unwrap_or_else(|e| panic!("{}: pre/post build: {e}", case.id));
        }
    }

    #[test]
    fn table1_shape_matches_paper() {
        let c = corpus();
        let custom: Vec<&Cve> = c.iter().filter(|e| e.needs_custom_code()).collect();
        assert_eq!(custom.len(), 8, "Table 1 has eight entries");
        assert_eq!(c.len() - custom.len(), 56, "56 of 64 need no new code");
        let mut lines: Vec<u32> = custom
            .iter()
            .map(|e| e.custom.as_ref().unwrap().lines)
            .collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 1, 4, 10, 14, 20, 34, 48]);
        // "about 17 lines per patch, on average"
        let avg = lines.iter().sum::<u32>() as f64 / lines.len() as f64;
        assert!((avg - 16.5).abs() < 0.01, "average custom lines {avg}");
        let data_init = custom
            .iter()
            .filter(|e| e.custom.as_ref().unwrap().reason == CustomReason::ChangesDataInit)
            .count();
        assert_eq!(data_init, 7);
    }

    #[test]
    fn custom_code_line_counts_are_honest() {
        // Table 1 counts "logical lines (semicolon-terminated lines)" of
        // new C code; the corpus must actually contain that much code.
        for case in corpus() {
            let Some(custom) = &case.custom else { continue };
            // Logical lines: statements ending in `;`, excluding the
            // registration macros and bare `return 0;` boilerplate.
            let logical = custom
                .code
                .lines()
                .map(str::trim)
                .filter(|l| l.ends_with(';') && !l.starts_with("ksplice_") && *l != "return 0;")
                .count() as u32;
            assert_eq!(
                logical, custom.lines,
                "{}: custom code has {} logical lines, metadata says {}",
                case.id, logical, custom.lines
            );
        }
    }

    #[test]
    fn class_mix_roughly_two_thirds_escalation() {
        let c = corpus();
        let priv_esc = c
            .iter()
            .filter(|e| e.class == VulnClass::PrivilegeEscalation)
            .count();
        assert!((38..=46).contains(&priv_esc), "priv-esc count {priv_esc}");
    }

    #[test]
    fn exploits_present_for_four() {
        let c = corpus();
        assert_eq!(c.iter().filter(|e| e.exploit.is_some()).count(), 4);
    }

    #[test]
    fn years_span_the_paper_interval() {
        let c = corpus();
        assert!(c.iter().all(|e| (2005..=2008).contains(&e.year)));
        for y in 2005..=2008 {
            assert!(c.iter().any(|e| e.year == y), "no entries for {y}");
        }
    }
}
