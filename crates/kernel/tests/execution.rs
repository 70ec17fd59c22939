//! End-to-end execution tests: `kc` source → compiled kernel → VM.
//!
//! These pin down the language/VM semantics that everything above (the
//! Ksplice evaluation, the exploits, the stress test) relies on.

use ksplice_kernel::{Kernel, RunExit, ThreadState};
use ksplice_lang::{Options, SourceTree};

fn boot(files: &[(&str, &str)]) -> Kernel {
    boot_with(files, &Options::distro())
}

fn boot_with(files: &[(&str, &str)], opts: &Options) -> Kernel {
    let tree: SourceTree = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    Kernel::boot(&tree, opts).expect("boot")
}

fn call(k: &mut Kernel, f: &str, args: &[u64]) -> i64 {
    k.call_function(f, args).expect("call") as i64
}

#[test]
fn arithmetic_and_comparisons() {
    let mut k = boot(&[(
        "m.kc",
        "int f(int a, int b) { return (a + b) * 3 - a / b + a % b; }\
         int cmp(int a, int b) { return (a < b) + 2 * (a == b) + 4 * (a >= b); }\
         int bits(int a, int b) { return (a & b) | (a ^ 255) | (a << 2) | (b >> 1); }\
         int logic(int a, int b) { return (a && b) + 2 * (a || b) + 4 * !a; }",
    )]);
    assert_eq!(call(&mut k, "f", &[10, 3]), 37); // 13*3 - 3 + 1
    assert_eq!(call(&mut k, "cmp", &[1, 2]), 1);
    assert_eq!(call(&mut k, "cmp", &[2, 2]), 6);
    assert_eq!(call(&mut k, "cmp", &[3, 2]), 4);
    assert_eq!(call(&mut k, "logic", &[0, 5]), 6);
    assert_eq!(call(&mut k, "logic", &[7, 0]), 2);
    assert_eq!(
        call(&mut k, "bits", &[12, 10]),
        (12 & 10) | (12 ^ 255) | (12 << 2) | (10 >> 1)
    );
}

#[test]
fn negative_numbers_and_unary() {
    let mut k = boot(&[("m.kc", "int f(int a) { return -a + ~a + !a; }")]);
    assert_eq!(call(&mut k, "f", &[5]), -5 + !5i64);
    assert_eq!(call(&mut k, "f", &[0]), !0i64 + 1);
}

#[test]
fn control_flow() {
    let mut k = boot(&[(
        "m.kc",
        "int collatz(int n) {\
           int steps;\
           steps = 0;\
           while (n != 1) {\
             if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\
             steps = steps + 1;\
           }\
           return steps;\
         }\
         int sum_for(int n) {\
           int i; int s; s = 0;\
           for (i = 1; i <= n; i = i + 1) { if (i == 4) continue; if (i > 8) break; s = s + i; }\
           return s;\
         }",
    )]);
    assert_eq!(call(&mut k, "collatz", &[27]), 111);
    assert_eq!(call(&mut k, "sum_for", &[100]), 1 + 2 + 3 + 5 + 6 + 7 + 8);
}

#[test]
fn recursion() {
    let mut k = boot(&[(
        "m.kc",
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
    )]);
    assert_eq!(call(&mut k, "fib", &[15]), 610);
}

#[test]
fn pointers_arrays_and_strings() {
    let mut k = boot(&[(
        "m.kc",
        "int buf[16];\
         byte msg[12] = \"hello\";\
         int fill(int n) {\
           int i;\
           for (i = 0; i < n; i = i + 1) { buf[i] = i * i; }\
           return buf[n - 1];\
         }\
         int via_ptr(int i) { int *p; p = buf; return *(p + i); }\
         int first_byte() { byte *s; s = msg; return *s; }\
         int nth_byte(int i) { return msg[i]; }",
    )]);
    assert_eq!(call(&mut k, "fill", &[10]), 81);
    assert_eq!(call(&mut k, "via_ptr", &[5]), 25);
    assert_eq!(call(&mut k, "first_byte", &[]), b'h' as i64);
    assert_eq!(call(&mut k, "nth_byte", &[4]), b'o' as i64);
    assert_eq!(call(&mut k, "nth_byte", &[5]), 0); // NUL terminator
}

#[test]
fn structs_and_field_access() {
    let mut k = boot(&[(
        "m.kc",
        "struct inode { int ino; int mode; byte tag; int uid; };\
         struct inode itab[8];\
         int setup(int i, int mode) {\
           struct inode *p;\
           p = itab;\
           (p + i)->ino = i;\
           (p + i)->mode = mode;\
           (p + i)->uid = 1000 + i;\
           return itab[i].mode;\
         }\
         int get_uid(int i) { return itab[i].uid; }",
    )]);
    assert_eq!(call(&mut k, "setup", &[3, 0x1ff]), 0x1ff);
    assert_eq!(call(&mut k, "get_uid", &[3]), 1003);
    assert_eq!(call(&mut k, "get_uid", &[2]), 0);
}

#[test]
fn linked_list_walk() {
    let mut k = boot(&[(
        "m.kc",
        "struct node { int v; struct node *next; };\
         int sum_list(int n) {\
           struct node *head; struct node *p; int i; int total;\
           head = 0;\
           for (i = 0; i < n; i = i + 1) {\
             p = kmalloc(sizeof(struct node));\
             p->v = i + 1;\
             p->next = head;\
             head = p;\
           }\
           total = 0;\
           p = head;\
           while (p) { total = total + p->v; p = p->next; }\
           return total;\
         }",
    )]);
    assert_eq!(call(&mut k, "sum_list", &[10]), 55);
}

#[test]
fn static_locals_persist_across_calls() {
    let mut k = boot(&[(
        "m.kc",
        "int counter() { static int calls; calls = calls + 1; return calls; }",
    )]);
    assert_eq!(call(&mut k, "counter", &[]), 1);
    assert_eq!(call(&mut k, "counter", &[]), 2);
    assert_eq!(call(&mut k, "counter", &[]), 3);
}

#[test]
fn file_statics_are_independent_per_unit() {
    let mut k = boot(&[
        (
            "a.kc",
            "static int debug; int bump_a() { debug = debug + 10; return debug; }",
        ),
        (
            "b.kc",
            "static int debug; int bump_b() { debug = debug + 1; return debug; }",
        ),
    ]);
    assert_eq!(call(&mut k, "bump_a", &[]), 10);
    assert_eq!(call(&mut k, "bump_b", &[]), 1);
    assert_eq!(call(&mut k, "bump_a", &[]), 20);
    assert_eq!(call(&mut k, "bump_b", &[]), 2);
}

#[test]
fn function_pointers_and_ops_tables() {
    let mut k = boot(&[(
        "m.kc",
        "int op_add(int a, int b) { return a + b; }\
         int op_mul(int a, int b) { return a * b; }\
         int ops[2] = { op_add, op_mul };\
         int dispatch(int which, int a, int b) {\
           int f;\
           f = ops[which];\
           return f(a, b);\
         }",
    )]);
    assert_eq!(call(&mut k, "dispatch", &[0, 6, 7]), 13);
    assert_eq!(call(&mut k, "dispatch", &[1, 6, 7]), 42);
}

#[test]
fn cross_unit_calls_and_globals() {
    let mut k = boot(&[
        (
            "lib.kc",
            "int base = 100; int helper(int x) { return base + x; }",
        ),
        ("use.kc", "int f(int x) { return helper(x) * 2; }"),
    ]);
    assert_eq!(call(&mut k, "f", &[5]), 210);
}

#[test]
fn header_shared_structs() {
    let mut k = boot(&[
        (
            "include/fs.kh",
            "struct file { int mode; int pos; }; struct file *cur_file;",
        ),
        (
            "fs/file.kc",
            "struct file table[4];\
             struct file *cur_file;\
             int open_file(int mode) { cur_file = table; cur_file->mode = mode; return 0; }",
        ),
        (
            "fs/read.kc",
            "int file_mode() { if (cur_file) { return cur_file->mode; } return -1; }",
        ),
    ]);
    assert_eq!(call(&mut k, "file_mode", &[]), -1);
    assert_eq!(call(&mut k, "open_file", &[0o644]), 0);
    assert_eq!(call(&mut k, "file_mode", &[]), 0o644);
}

#[test]
fn division_by_zero_oopses() {
    let mut k = boot(&[("m.kc", "int f(int a) { return 10 / a; }")]);
    assert_eq!(call(&mut k, "f", &[2]), 5);
    let err = k.call_function("f", &[0]).unwrap_err();
    assert!(err.to_string().contains("divide error"), "{err}");
    assert_eq!(k.oopses.len(), 1);
    // The kernel limps on: other calls still work.
    assert_eq!(call(&mut k, "f", &[5]), 2);
}

#[test]
fn null_dereference_oopses_with_backtrace() {
    let mut k = boot(&[(
        "m.kc",
        "int inner(int *p) { int i; int s; s = 0;\
           for (i = 0; i < 3; i = i + 1) { s = s + i; }\
           return *p + s; }\
         int outer() { int *p; p = 0; return inner(p); }",
    )]);
    let err = k.call_function("outer", &[]).unwrap_err();
    assert!(err.to_string().contains("paging request"), "{err}");
    let oops = k.oopses.last().unwrap();
    // Backtrace: faulting ip (in inner) plus a return address in outer.
    assert!(oops.backtrace.len() >= 2, "backtrace: {:?}", oops.backtrace);
    let f = k.syms.lookup_addr(oops.backtrace[0]).unwrap();
    assert_eq!(f.name, "inner");
    let caller = k.syms.lookup_addr(oops.backtrace[1]).unwrap();
    assert_eq!(caller.name, "outer");
}

#[test]
fn syscall_dispatch_via_int() {
    // `do_syscall` is ordinary kernel code; `int 0x80` jumps to it. An
    // assembly unit issues the trap.
    let mut k = boot(&[
        (
            "kernel/sys.kc",
            "int sys_getpid() { return current_tid(); }\
             int sys_double(int x) { return x + x; }\
             int do_syscall(int nr, int a) {\
               if (nr == 1) { return sys_getpid(); }\
               if (nr == 2) { return sys_double(a); }\
               return -38;\
             }",
        ),
        (
            "arch/entry.ks",
            ".global trap_double\n\
             trap_double:\n\
                 mov r2, r1\n\
                 mov r1, 2\n\
                 int 0x80\n\
                 ret\n",
        ),
    ]);
    assert_eq!(call(&mut k, "trap_double", &[21]), 42);
    assert_eq!(call(&mut k, "do_syscall", &[99, 0]), -38);
}

#[test]
fn printk_reaches_the_log() {
    let mut k = boot(&[(
        "m.kc",
        "int f() { printk(\"device ready\"); printk_int(\"count\", 42); return 0; }",
    )]);
    call(&mut k, "f", &[]);
    assert_eq!(
        k.klog,
        vec!["device ready".to_string(), "count: 42".to_string()]
    );
}

#[test]
fn scheduler_interleaves_threads() {
    let mut k = boot(&[(
        "m.kc",
        "int done_a; int done_b;\
         int spin_a() { int i; for (i = 0; i < 2000; i = i + 1) { } done_a = 1; return 0; }\
         int spin_b() { int i; for (i = 0; i < 2000; i = i + 1) { } done_b = 1; return 0; }\
         int check() { return done_a + 2 * done_b; }",
    )]);
    k.spawn("spin_a", &[]).unwrap();
    k.spawn("spin_b", &[]).unwrap();
    assert_eq!(k.run(10_000_000), RunExit::AllExited);
    assert_eq!(call(&mut k, "check", &[]), 3);
}

#[test]
fn sleeping_thread_wakes() {
    let mut k = boot(&[(
        "m.kc",
        "int woke;\
         int sleeper() { msleep(3); woke = 1; return 0; }\
         int get_woke() { return woke; }",
    )]);
    let tid = k.spawn("sleeper", &[]).unwrap();
    // Step in tiny increments until the thread blocks in msleep.
    let mut observed_sleep = false;
    for _ in 0..100 {
        k.run(1);
        if matches!(k.thread(tid).unwrap().state, ThreadState::Sleeping(_)) {
            observed_sleep = true;
            break;
        }
    }
    assert!(observed_sleep, "thread never entered msleep");
    assert_eq!(k.run(100_000), RunExit::AllExited);
    assert_eq!(call(&mut k, "get_woke", &[]), 1);
}

#[test]
fn exit_codes_propagate() {
    let mut k = boot(&[("m.kc", "int f() { return 7; }")]);
    let tid = k.spawn("f", &[]).unwrap();
    k.run(10_000);
    assert_eq!(k.thread(tid).unwrap().state, ThreadState::Exited(7));
}

#[test]
fn semantics_identical_across_optimisation_levels() {
    // The same program must behave identically at -O0 and -O2 (inlining
    // and folding are semantics-preserving) — this is what licences
    // Ksplice to replace a function with a different binary
    // representation of the same source (paper §3.2).
    let src = "static int clamp(int v, int lo, int hi) {\
                 if (v < lo) return lo;\
                 if (v > hi) return hi;\
                 return v;\
               }\
               int grade(int score) {\
                 int g;\
                 g = clamp(score, 0, 100);\
                 if (g >= 90) return 4;\
                 if (g >= 80) return 3;\
                 if (g >= 60) return 2;\
                 return 0 - 1 + 1;\
               }";
    for opt_level in [0u8, 1, 2] {
        let mut k = boot_with(
            &[("m.kc", src)],
            &Options {
                opt_level,
                ..Options::distro()
            },
        );
        for (input, want) in [(-50i64, 0), (59, 0), (60, 2), (85, 3), (95, 4), (1000, 4)] {
            assert_eq!(
                call(&mut k, "grade", &[input as u64]),
                want,
                "grade({input}) at -O{opt_level}"
            );
        }
    }
}

#[test]
fn inlined_callee_reads_the_global_not_a_caller_local() {
    // `f` declares a local `g`; inlining `get` into `f` must not bind
    // `get`'s global `g` to it.
    let src = "int g = 5;\
               static int get() { return g; }\
               int f() { int g; g = 7; return get(); }\
               int h() { return get(); }";
    for opt_level in [0u8, 2] {
        let mut k = boot_with(
            &[("m.kc", src)],
            &Options {
                opt_level,
                ..Options::distro()
            },
        );
        assert_eq!(call(&mut k, "f", &[]), 5, "f() at -O{opt_level}");
        assert_eq!(call(&mut k, "h", &[]), 5, "h() at -O{opt_level}");
    }
}

#[test]
fn a_block_local_in_an_inlined_callee_ends_with_its_block() {
    // `get`'s block-local `g` shadows the global only inside the block:
    // the read after it is the global's, inlined or not.
    let src = "int g = 5;\
               static int get(int c) { if (c) { int g; g = 1; } return g; }\
               int f() { return get(1); }";
    for opt_level in [0u8, 2] {
        let tree: SourceTree = [("m.kc".to_string(), src.to_string())]
            .into_iter()
            .collect();
        let opts = Options {
            opt_level,
            ..Options::distro()
        };
        let mut k =
            Kernel::boot(&tree, &opts).unwrap_or_else(|e| panic!("boot at -O{opt_level}: {e}"));
        assert_eq!(call(&mut k, "f", &[]), 5, "f() at -O{opt_level}");
    }
}

#[test]
fn shadow_data_structures() {
    let mut k = boot(&[(
        "m.kc",
        "struct sock { int port; };\
         struct sock s1; struct sock s2;\
         int tag(int which, int val) {\
           struct sock *p; int *sh;\
           if (which) { p = &s1; } else { p = &s2; }\
           sh = ksplice_shadow_attach(p, 1, 8);\
           *sh = val;\
           return 0;\
         }\
         int get_tag(int which) {\
           struct sock *p; int *sh;\
           if (which) { p = &s1; } else { p = &s2; }\
           sh = ksplice_shadow_get(p, 1);\
           if (sh == 0) { return -1; }\
           return *sh;\
         }",
    )]);
    assert_eq!(call(&mut k, "get_tag", &[1]), -1);
    call(&mut k, "tag", &[1, 111]);
    call(&mut k, "tag", &[0, 222]);
    assert_eq!(call(&mut k, "get_tag", &[1]), 111);
    assert_eq!(call(&mut k, "get_tag", &[0]), 222);
}

#[test]
fn memset_memcpy_strcmp() {
    let mut k = boot(&[(
        "m.kc",
        "byte a[16]; byte b[16] = \"abc\";\
         int f() {\
           memset(a, 0, 16);\
           memcpy(a, b, 4);\
           return strcmp_k(a, b);\
         }",
    )]);
    assert_eq!(call(&mut k, "f", &[]), 0);
}

#[test]
fn deep_recursion_overflows_stack_and_oopses() {
    let mut k = boot(&[(
        "m.kc",
        "int deep(int n) { int pad[64]; pad[0] = n; return deep(n + 1) + pad[0]; }",
    )]);
    let err = k.call_function("deep", &[0]).unwrap_err();
    // The stack runs off its region: a paging oops, not a Rust panic.
    assert!(
        err.to_string().contains("Oops") || err.to_string().contains("oops"),
        "{err}"
    );
}
