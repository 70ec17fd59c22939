//! Built-in ("native") kernel API.
//!
//! A handful of primitives every kernel provides — allocation, logging,
//! sleeping, the shadow-data-structure helpers of paper §5.3 — are
//! implemented natively rather than in `kc`. They live at reserved
//! addresses outside mapped memory; a call that lands in the native range
//! is dispatched by the VM and behaves like a normal function returning
//! through the saved return address.

use crate::kernel::Kernel;
use crate::mem::MemFault;

/// Base of the native-call address range: above the memory arena but
/// within `rel32` reach of kernel text, like fixmap/vsyscall pages.
pub const NATIVE_BASE: u64 = 0xff00_0000;

/// Magic return address marking the bottom of a thread's call stack;
/// returning to it exits the thread with `r0` as the code.
pub const RETURN_SENTINEL: u64 = NATIVE_BASE - 8;

/// The native functions, in address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Native {
    /// `printk(msg)` — append a NUL-terminated string to the kernel log.
    Printk,
    /// `printk_int(msg, v)` — log `msg: v` (poor man's format string).
    PrintkInt,
    /// `kmalloc(size)` — allocate zeroed kernel memory; 0 on failure.
    Kmalloc,
    /// `kfree(ptr, size)` — free a kmalloc block.
    Kfree,
    /// `memset(p, byte, n)`.
    Memset,
    /// `memcpy(dst, src, n)`.
    Memcpy,
    /// `strcmp_k(a, b)` — C string compare.
    Strcmp,
    /// `msleep(ticks)` — sleep the calling thread.
    Msleep,
    /// `yield_cpu()` — end the thread's slice.
    YieldCpu,
    /// `panic_k(msg)` — oops the calling thread.
    Panic,
    /// `ksplice_shadow_attach(obj, key, size)` — attach (or fetch) a
    /// shadow block for a data structure instance (paper §5.3).
    ShadowAttach,
    /// `ksplice_shadow_get(obj, key)` — fetch a shadow block or 0.
    ShadowGet,
    /// `ksplice_shadow_free(obj, key)` — detach and free a shadow block.
    ShadowFree,
    /// `krandom()` — deterministic pseudo-random u63.
    Krandom,
    /// `current_tid()` — the calling thread's id.
    CurrentTid,
    /// `jiffies_now()` — the scheduler tick counter.
    Jiffies,
}

const TABLE: [(&str, Native); 16] = [
    ("printk", Native::Printk),
    ("printk_int", Native::PrintkInt),
    ("kmalloc", Native::Kmalloc),
    ("kfree", Native::Kfree),
    ("memset", Native::Memset),
    ("memcpy", Native::Memcpy),
    ("strcmp_k", Native::Strcmp),
    ("msleep", Native::Msleep),
    ("yield_cpu", Native::YieldCpu),
    ("panic_k", Native::Panic),
    ("ksplice_shadow_attach", Native::ShadowAttach),
    ("ksplice_shadow_get", Native::ShadowGet),
    ("ksplice_shadow_free", Native::ShadowFree),
    ("krandom", Native::Krandom),
    ("current_tid", Native::CurrentTid),
    ("jiffies_now", Native::Jiffies),
];

/// The address a native symbol name resolves to, if it is one.
pub fn native_addr(name: &str) -> Option<u64> {
    TABLE
        .iter()
        .position(|(n, _)| *n == name)
        .map(|i| NATIVE_BASE + (i as u64) * 16)
}

/// The native function at an address in the native range.
pub fn native_from_addr(addr: u64) -> Option<Native> {
    if addr < NATIVE_BASE {
        return None;
    }
    let idx = (addr - NATIVE_BASE) / 16;
    if !(addr - NATIVE_BASE).is_multiple_of(16) {
        return None;
    }
    TABLE.get(idx as usize).map(|(_, f)| *f)
}

/// Outcome of a native call.
pub(crate) enum NativeOutcome {
    /// Return `r0` to the caller.
    Return(u64),
    /// The thread goes to sleep until the given tick (still returns 0).
    Sleep(u64),
    /// End the thread's scheduling slice (returns 0).
    Yield,
    /// The call oopses the thread.
    Fault(String),
}

impl Kernel {
    /// Executes a native function for the thread whose argument registers
    /// are `args` (`r1..=r6`).
    pub(crate) fn dispatch_native(&mut self, tid: u64, f: Native, args: [u64; 6]) -> NativeOutcome {
        match f {
            Native::Printk => match self.mem.read_cstr(args[0]) {
                Ok(s) => {
                    self.klog.push(s);
                    NativeOutcome::Return(0)
                }
                Err(e) => NativeOutcome::Fault(format!("printk: {e}")),
            },
            Native::PrintkInt => match self.mem.read_cstr(args[0]) {
                Ok(s) => {
                    self.klog.push(format!("{s}: {}", args[1] as i64));
                    NativeOutcome::Return(0)
                }
                Err(e) => NativeOutcome::Fault(format!("printk_int: {e}")),
            },
            Native::Kmalloc => NativeOutcome::Return(self.kmalloc(args[0])),
            Native::Kfree => {
                self.kfree(args[0], args[1]);
                NativeOutcome::Return(0)
            }
            Native::Memset => {
                let (p, v, n) = (args[0], args[1] as u8, args[2]);
                let buf = vec![v; n as usize];
                match self.mem.store(p, &buf) {
                    Ok(()) => NativeOutcome::Return(p),
                    Err(e) => NativeOutcome::Fault(format!("memset: {e}")),
                }
            }
            Native::Memcpy => {
                let (d, s, n) = (args[0], args[1], args[2]);
                let data: Result<Vec<u8>, MemFault> = self.mem.load(s, n).map(|b| b.to_vec());
                match data.and_then(|b| self.mem.store(d, &b)) {
                    Ok(()) => NativeOutcome::Return(d),
                    Err(e) => NativeOutcome::Fault(format!("memcpy: {e}")),
                }
            }
            Native::Strcmp => {
                let a = self.mem.read_cstr(args[0]);
                let b = self.mem.read_cstr(args[1]);
                match (a, b) {
                    (Ok(a), Ok(b)) => NativeOutcome::Return(match a.cmp(&b) {
                        std::cmp::Ordering::Less => -1i64 as u64,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    }),
                    _ => NativeOutcome::Fault("strcmp: bad pointer".to_string()),
                }
            }
            Native::Msleep => NativeOutcome::Sleep(self.ticks + args[0].max(1)),
            Native::YieldCpu => NativeOutcome::Yield,
            Native::Panic => {
                let msg = self
                    .mem
                    .read_cstr(args[0])
                    .unwrap_or_else(|_| "panic".to_string());
                NativeOutcome::Fault(format!("kernel panic: {msg}"))
            }
            Native::ShadowAttach => {
                let key = (args[0], args[1]);
                if let Some(&addr) = self.shadows.get(&key) {
                    return NativeOutcome::Return(addr);
                }
                let addr = self.kmalloc(args[2]);
                if addr != 0 {
                    self.shadows.insert(key, addr);
                }
                NativeOutcome::Return(addr)
            }
            Native::ShadowGet => {
                NativeOutcome::Return(self.shadows.get(&(args[0], args[1])).copied().unwrap_or(0))
            }
            Native::ShadowFree => {
                if let Some(addr) = self.shadows.remove(&(args[0], args[1])) {
                    self.kfree(addr, 16);
                }
                NativeOutcome::Return(0)
            }
            Native::Krandom => NativeOutcome::Return(self.rng.next_u64() >> 1),
            Native::CurrentTid => NativeOutcome::Return(tid),
            Native::Jiffies => NativeOutcome::Return(self.ticks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_roundtrip() {
        for (name, f) in TABLE {
            let addr = native_addr(name).unwrap();
            assert_eq!(native_from_addr(addr), Some(f));
        }
        assert_eq!(native_addr("not_a_native"), None);
        assert_eq!(native_from_addr(NATIVE_BASE + 8), None); // misaligned
        assert_eq!(native_from_addr(0x1000), None);
    }

    #[test]
    fn sentinel_is_not_a_native() {
        assert_eq!(native_from_addr(RETURN_SENTINEL), None);
    }
}
