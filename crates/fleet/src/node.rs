//! The simulated fleet: heterogeneous base versions, per-version update
//! packs, and the node state machine that answers the orchestrator.
//!
//! Production Ksplice builds one update per (patch, kernel build): the
//! paper's run-pre matching is byte-exact, so a pack built against base
//! version A aborts with `Mismatch` on a kernel whose drift touched the
//! same compilation unit. The fleet mirrors that: each node runs one of
//! [`VERSION_NAMES`], and [`build_packset`] builds the same logical
//! update once per version through the shared build cache.
//!
//! Nodes are cheap when idle: a [`FleetNode`] holds only compact state
//! (version, baseline checksum, and one list of applied updates that is
//! also its pack cache) and *materializes* a kernel runtime on contact —
//! a fork of the per-version post-boot snapshot, optional multi-vCPU
//! workload threads, seeded settle — then drops it again unless the
//! fleet is configured resident. Rollback of a non-resident node
//! rehydrates deterministically (same seeds, same op order), re-applies
//! its committed updates from the pack cache, and reverses the target
//! checksum-verified.

use ksplice_core::{
    create_update_cached_traced, ApplyOptions, CreateOptions, HealthProbe, LifecycleError,
    RetryPolicy, SmpConfig, UpdateManager, UpdatePack, WatchPolicy,
};
use ksplice_eval::smp::SMP_LOAD_SRC;
use ksplice_eval::{base_tree, diff_trees, load_workload, par_map};
use ksplice_kernel::{Kernel, KernelSnapshot};
use ksplice_lang::{
    build_tree_cached, fnv1a, BuildCache, FuzzRng, Options, SourceTree, FNV_OFFSET,
};
use ksplice_trace::Tracer;

use crate::transport::{NodeId, Payload, Verdict};

/// The base versions the fleet is heterogeneous across, oldest first.
///
/// * `2.6.16` — the evaluation base tree.
/// * `2.6.16-hw` — a vendor build: an extra helper in `lib/string.kc`
///   (a different unit than the fleet update patches, so the drift is
///   benign for this update — but the pack is still built per version).
/// * `2.6.17` — drift *inside* `kernel/sys.kc` itself (`do_syscall`'s
///   unknown-syscall errno), the unit the update patches: a `2.6.16`
///   pack run-pre-mismatches here, which is why the packset exists.
pub const VERSION_NAMES: [&str; 3] = ["2.6.16", "2.6.16-hw", "2.6.17"];

/// Builds the source tree of one base version.
pub fn version_tree(version: usize) -> SourceTree {
    let mut tree = base_tree();
    match version {
        0 => {}
        1 => {
            let src = tree.get("lib/string.kc").expect("lib/string.kc");
            let drifted = format!(
                "{src}\nint hw_vendor_quirk(int x) {{\n    return x + 1;\n}}\n"
            );
            tree.set("lib/string.kc", drifted);
        }
        2 => {
            let src = tree.get("kernel/sys.kc").expect("kernel/sys.kc");
            let drifted = src.replace("return 0 - 38;", "return 0 - 39;");
            assert_ne!(drifted, src, "2.6.17 drift anchor moved");
            tree.set("kernel/sys.kc", drifted);
        }
        other => panic!("unknown base version index {other}"),
    }
    tree
}

/// The debug-hook block CVE-2006-2451's fix removes from `sys_prctl`.
const PRCTL_HOOK: &str = "    if (option == 99) {\n        \
     // Leftover debug hook: grants full capabilities to the caller.\n        \
     grant_caps(current_tid());\n        return 0;\n    }\n";

/// The canary probe specs shipped with the fleet update. Both are plain
/// `HealthProbe::parse` specs evaluated node-side during quarantine:
///
/// * `sys_prctl(99,0)=-22` — the patch took: the debug hook is gone.
/// * `sys_prctl(3,1)=0` — `PR_SET_DUMPABLE` still accepts valid values;
///   the poisoned build breaks exactly this.
pub fn default_canaries() -> Vec<String> {
    vec![
        "sys_prctl(99,0)=-22".to_string(),
        "sys_prctl(3,1)=0".to_string(),
    ]
}

/// Applies the fleet update's source edit to one version's tree: remove
/// the `sys_prctl` debug hook (the CVE-2006-2451 fix). A poisoned build
/// additionally breaks `PR_SET_DUMPABLE`'s range check so valid calls
/// return `-EINVAL` — safe-looking, canary-fatal.
///
/// Public so drift-rebase tests can recover the update's patch text
/// (`diff_trees(&pre, &patched_tree(&pre, false))`) and re-port it onto
/// a drifted stratum with `ksplice_core::rebase_update`.
pub fn patched_tree(pre: &SourceTree, poison: bool) -> SourceTree {
    let src = pre.get("kernel/sys.kc").expect("kernel/sys.kc");
    let mut post = src.replace(PRCTL_HOOK, "");
    assert_ne!(post, src, "prctl hook anchor moved");
    if poison {
        let broken = post.replace("if (arg < 0 || arg > 2)", "if (arg < 0 || arg > 0)");
        assert_ne!(broken, post, "dumpable range anchor moved");
        post = broken;
    }
    let mut tree = pre.clone();
    tree.set("kernel/sys.kc", post);
    tree
}

/// One logical update, built once per base version (the Uptrack model).
#[derive(Debug, Clone)]
pub struct PackSet {
    /// Update id, identical across versions.
    pub update_id: String,
    /// Canary probe specs shipped with every delivery.
    pub canaries: Vec<String>,
    /// Serialized pack per version index.
    packs: Vec<Vec<u8>>,
    /// FNV-1a of each serialized pack.
    checksums: Vec<u64>,
}

impl PackSet {
    /// Assembles a packset from pre-serialized per-version packs — the
    /// Uptrack build-server path where some strata get packs produced by
    /// `ksplice_core::rebase_update` against their drifted trees instead
    /// of a fresh same-tree build. Checksums are computed here.
    pub fn from_packs(update_id: &str, canaries: Vec<String>, packs: Vec<Vec<u8>>) -> Self {
        assert!(!packs.is_empty(), "a packset needs at least one pack");
        let checksums = packs.iter().map(|p| fnv1a(FNV_OFFSET, p)).collect();
        PackSet {
            update_id: update_id.to_string(),
            canaries,
            packs,
            checksums,
        }
    }

    /// The serialized pack and checksum for one base version.
    pub fn for_version(&self, version: usize) -> (&[u8], u64) {
        (&self.packs[version], self.checksums[version])
    }

    /// Number of per-version builds.
    pub fn versions(&self) -> usize {
        self.packs.len()
    }
}

/// Builds the fleet update for the first `versions` base versions.
/// Versions listed in `poison_versions` get the poisoned build — the
/// "safe on one base version, misbehaves on another" shape the staged
/// rollout must contain. `versions` must be at least 1, as
/// [`PackSet::from_packs`] requires.
pub fn build_packset(
    update_id: &str,
    versions: usize,
    poison_versions: &[usize],
    cache: &BuildCache,
) -> Result<PackSet, String> {
    let mut packs = Vec::new();
    for v in 0..versions {
        let pre = version_tree(v);
        let post = patched_tree(&pre, poison_versions.contains(&v));
        let patch = diff_trees(&pre, &post);
        let (pack, _) = create_update_cached_traced(
            update_id,
            &pre,
            &patch,
            &CreateOptions::default(),
            cache,
            &mut Tracer::disabled(),
        )
        .map_err(|e| format!("{update_id} v{v}: create: {e}"))?;
        packs.push(pack.to_bytes());
    }
    Ok(PackSet::from_packs(update_id, default_canaries(), packs))
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated kernels.
    pub nodes: u32,
    /// Base versions cycled across nodes: 1 to [`VERSION_NAMES`] len.
    pub versions: usize,
    /// vCPUs per node kernel (PR 8's SMP substrate).
    pub cpus: u32,
    /// Background workload threads per node, hammering the syscall
    /// path so waves run against *loaded* multi-CPU kernels.
    pub load_threads: u32,
    /// Master seed: derives every per-node seed.
    pub seed: u64,
    /// Keep node kernels resident after contact. Tests assert on
    /// resident kernels; large fleets stay non-resident to bound memory.
    pub resident: bool,
    /// The node-local stop_machine retry schedule (drains quiescence
    /// contention from the workload threads).
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 48,
            versions: VERSION_NAMES.len(),
            cpus: 1,
            load_threads: 0,
            seed: 0xf1ee_7001,
            resident: false,
            retry: RetryPolicy::fixed(10, 2_000),
        }
    }
}

/// The quarantine watch window each node runs post-apply.
const WATCH: WatchPolicy = WatchPolicy {
    rounds: 2,
    steps_per_round: 500,
};

/// One base version, booted once: every node of the version forks it.
struct VersionBase {
    /// The kernel right after boot — plus the load workload module when
    /// the fleet runs load threads. Inserting a module touches no
    /// scheduler state, so it commutes with each node's seeded SMP setup.
    snapshot: KernelSnapshot,
    /// The load workload's entry point, when it is loaded.
    load_entry: Option<u64>,
}

/// Shared, thread-safe build context: per-version post-boot kernel
/// snapshots plus the build cache they were compiled through.
pub struct FleetContext {
    bases: Vec<VersionBase>,
    cache: BuildCache,
}

impl FleetContext {
    fn new(cfg: &FleetConfig) -> Result<FleetContext, String> {
        let cache = BuildCache::new();
        let mut bases = Vec::new();
        for v in 0..cfg.versions {
            let tree = version_tree(v);
            let (image, _) = build_tree_cached(&tree, &Options::distro(), &cache)
                .map_err(|e| format!("version {v} image: {e}"))?;
            let mut kernel =
                Kernel::boot_image(&image).map_err(|e| format!("version {v} boot: {e}"))?;
            // The SMP sweep's syscall loop: no cross-thread invariants,
            // so N copies run indefinitely.
            let load_entry = if cfg.load_threads > 0 {
                Some(load_workload(
                    &mut kernel,
                    &cache,
                    "fleet/load.kc",
                    SMP_LOAD_SRC,
                    "smp_load_main",
                )?)
            } else {
                None
            };
            bases.push(VersionBase {
                snapshot: kernel.snapshot(),
                load_entry,
            });
        }
        Ok(FleetContext { bases, cache })
    }

    /// The shared build cache (pack builds can reuse it).
    pub fn cache(&self) -> &BuildCache {
        &self.cache
    }
}

/// A node's live kernel + lifecycle manager, present only while
/// materialized.
struct NodeRuntime {
    kernel: Kernel,
    mgr: UpdateManager,
}

/// One simulated kernel in the fleet.
pub struct FleetNode {
    /// Dense node id (`fleet.nodes[id]`).
    pub id: NodeId,
    /// Base version index into [`VERSION_NAMES`].
    pub version: usize,
    /// Text checksum of the freshly settled kernel, recorded at first
    /// materialization — the mass-rollback reference image.
    pub baseline_text: u64,
    /// Per committed update, oldest first: its id, the delivered pack
    /// bytes (the node's local pack cache, needed to rehydrate) and the
    /// pre-apply text checksum.
    applied: Vec<(String, Vec<u8>, u64)>,
    /// Updates revoked by a rollback order. A Deliver that arrives after
    /// its Rollback (reordered by a partition heal) must not resurrect
    /// the update, so rollback orders are sticky.
    revoked: Vec<String>,
    seed: u64,
    runtime: Option<NodeRuntime>,
}

impl FleetNode {
    fn new(id: NodeId, version: usize, seed: u64) -> FleetNode {
        FleetNode {
            id,
            version,
            baseline_text: 0,
            applied: Vec::new(),
            revoked: Vec::new(),
            seed,
            runtime: None,
        }
    }

    /// Placeholder left behind while a worker owns the real node.
    fn tombstone() -> FleetNode {
        FleetNode::new(u32::MAX, 0, 1)
    }

    /// Text checksum of the resident kernel (None when not resident).
    pub fn resident_text_checksum(&self) -> Option<u64> {
        self.runtime.as_ref().map(|rt| rt.kernel.mem.text_checksum())
    }

    /// The resident kernel, if the node holds one.
    pub fn resident_kernel(&self) -> Option<&Kernel> {
        self.runtime.as_ref().map(|rt| &rt.kernel)
    }

    /// Ids of the updates currently committed, oldest first.
    pub fn committed(&self) -> Vec<&str> {
        self.applied.iter().map(|(id, _, _)| id.as_str()).collect()
    }

    /// The pre-apply text checksum recorded for a committed update, or
    /// `None` when the node does not hold it.
    fn pre_apply_checksum(&self, update: &str) -> Option<u64> {
        self.applied
            .iter()
            .find(|(id, _, _)| id == update)
            .map(|(_, _, pre)| *pre)
    }

    /// Materializes (or rehydrates) the node's kernel: a fork of the
    /// per-version snapshot, SMP topology, seeded workload threads and
    /// settle skid,
    /// then re-application of every committed update from the local
    /// pack cache. The op order and all seeds are pure functions of the
    /// node, so a rehydrated kernel is byte-identical in text to the
    /// one that was dropped.
    fn materialize(&mut self, cx: &FleetContext, cfg: &FleetConfig) -> Result<(), String> {
        if self.runtime.is_some() {
            return Ok(());
        }
        let mut rng = FuzzRng::from_state(self.seed);
        let base = &cx.bases[self.version];
        let mut kernel = base.snapshot.fork();
        // Configuring one vCPU would change no schedule, but the guard
        // also gates the seed draw: without it every later draw from
        // `rng`, and so the fleet's output, would move.
        if cfg.cpus > 1 {
            kernel.configure_smp(SmpConfig::with_cpus(cfg.cpus).with_seed(rng.next_u64()));
        }
        if let Some(entry) = base.load_entry {
            for _ in 0..cfg.load_threads {
                kernel
                    .spawn_at(entry, &[1_000_000_000], "fleet-load")
                    .map_err(|e| format!("node {}: load spawn: {e}", self.id))?;
                // Seeded skid so threads sharing a run queue don't park
                // in phase lockstep (same trick as the SMP sweep).
                kernel.run(257 + rng.below(509));
            }
        }
        kernel.run(1_000 + rng.below(1_009));
        if self.baseline_text == 0 {
            self.baseline_text = kernel.mem.text_checksum();
        }
        // Rehydration: re-apply the committed stack probe-free (each
        // update already survived quarantine the first time, and an
        // empty probe set passes every watch round trivially).
        let mut mgr = UpdateManager::with_watch(WATCH);
        let opts = self.apply_options(cfg);
        for (id, bytes, _) in &self.applied {
            let pack = UpdatePack::parse(bytes)
                .map_err(|e| format!("node {}: cached pack {id}: {e}", self.id))?;
            mgr.apply_watched(&mut kernel, &pack, &mut [], &opts, &mut Tracer::disabled())
                .map_err(|e| format!("node {}: rehydrate {id}: {e}", self.id))?;
        }
        self.runtime = Some(NodeRuntime { kernel, mgr });
        Ok(())
    }

    fn apply_options(&self, cfg: &FleetConfig) -> ApplyOptions {
        ApplyOptions {
            retry: cfg.retry.clone(),
            smp: SmpConfig::with_cpus(cfg.cpus),
        }
    }

    /// Handles one tick's messages, returning the reports to send back.
    /// Non-resident nodes drop their kernel before returning.
    pub fn handle(
        &mut self,
        msgs: Vec<Payload>,
        cx: &FleetContext,
        cfg: &FleetConfig,
    ) -> Vec<Payload> {
        let mut out = Vec::new();
        for msg in msgs {
            let reply = match msg {
                Payload::Deliver {
                    update,
                    pack,
                    checksum,
                    canaries,
                } => Some(self.deliver(update, pack, checksum, &canaries, cx, cfg)),
                Payload::Rollback { update } => Some(self.rollback(update, cx, cfg)),
                // Nodes never receive reports; ignore strays.
                Payload::Report { .. } => None,
            };
            out.extend(reply);
        }
        if !cfg.resident {
            self.runtime = None;
        }
        out
    }

    fn deliver(
        &mut self,
        update: String,
        pack_bytes: Vec<u8>,
        checksum: u64,
        canaries: &[String],
        cx: &FleetContext,
        cfg: &FleetConfig,
    ) -> Payload {
        // A rollback order is sticky: a Deliver arriving after its
        // Rollback (reordered by a partition heal) must not resurrect
        // the update.
        if self.revoked.contains(&update) {
            return report(update, Verdict::RolledBack { restored: true });
        }
        // Duplicate deliveries are idempotent: re-ack, never re-apply.
        if self.pre_apply_checksum(&update).is_some() {
            return report(update, Verdict::AlreadyApplied);
        }
        if fnv1a(FNV_OFFSET, &pack_bytes) != checksum {
            return report(
                update,
                Verdict::Rejected {
                    reason: "pack checksum mismatch".to_string(),
                },
            );
        }
        let pack = match UpdatePack::parse(&pack_bytes) {
            Ok(pack) => pack,
            Err(e) => {
                return report(
                    update,
                    Verdict::Rejected {
                        reason: format!("unparsable pack: {e}"),
                    },
                )
            }
        };
        let mut probes: Vec<HealthProbe> = match canaries
            .iter()
            .map(|s| HealthProbe::parse(s))
            .collect::<Result<_, _>>()
        {
            Ok(probes) => probes,
            Err(e) => {
                return report(
                    update,
                    Verdict::Rejected {
                        reason: format!("bad canary: {e}"),
                    },
                )
            }
        };
        if let Err(e) = self.materialize(cx, cfg) {
            return report(
                update,
                Verdict::ApplyFailed {
                    reason: e,
                    restored: true,
                },
            );
        }
        let opts = self.apply_options(cfg);
        let rt = self.runtime.as_mut().expect("materialized");
        let pre = rt.kernel.mem.text_checksum();
        match rt.mgr.apply_watched(
            &mut rt.kernel,
            &pack,
            &mut probes,
            &opts,
            &mut Tracer::disabled(),
        ) {
            Ok(rep) => {
                self.applied.push((update.clone(), pack_bytes, pre));
                report(
                    update,
                    Verdict::Committed {
                        attempts: rep.attempts,
                        pause_steps: rep.pause_steps,
                    },
                )
            }
            Err(LifecycleError::Quarantine {
                probe, restored, ..
            }) => report(update, Verdict::Quarantined { probe, restored }),
            Err(LifecycleError::RollbackFailed { reason, .. }) => report(
                update,
                Verdict::ApplyFailed {
                    reason: format!("rollback stuck: {reason}"),
                    restored: false,
                },
            ),
            Err(e) => {
                let restored = rt.kernel.mem.text_checksum() == pre;
                report(
                    update,
                    Verdict::ApplyFailed {
                        reason: e.to_string(),
                        restored,
                    },
                )
            }
        }
    }

    fn rollback(&mut self, update: String, cx: &FleetContext, cfg: &FleetConfig) -> Payload {
        if !self.revoked.contains(&update) {
            self.revoked.push(update.clone());
        }
        // Never applied (or already reversed): trivially rolled back.
        let Some(pre) = self.pre_apply_checksum(&update) else {
            return report(update, Verdict::RolledBack { restored: true });
        };
        if let Err(e) = self.materialize(cx, cfg) {
            return report(
                update,
                Verdict::ApplyFailed {
                    reason: e,
                    restored: false,
                },
            );
        }
        let opts = self.apply_options(cfg);
        let rt = self.runtime.as_mut().expect("materialized");
        match rt
            .mgr
            .undo_any(&mut rt.kernel, &update, &opts, &mut Tracer::disabled())
        {
            Ok(_) => {
                let restored = rt.kernel.mem.text_checksum() == pre;
                self.applied.retain(|(id, _, _)| id != &update);
                report(update, Verdict::RolledBack { restored })
            }
            Err(e) => report(
                update,
                Verdict::ApplyFailed {
                    reason: format!("undo: {e}"),
                    restored: false,
                },
            ),
        }
    }
}

fn report(update: String, verdict: Verdict) -> Payload {
    Payload::Report { update, verdict }
}

/// The whole simulated fleet: shared build context plus every node.
pub struct Fleet {
    /// The fleet-wide configuration.
    pub cfg: FleetConfig,
    cx: FleetContext,
    nodes: Vec<FleetNode>,
}

impl Fleet {
    /// Builds the fleet: per-version kernels booted and snapshotted
    /// once, then `cfg.nodes`
    /// compact nodes with versions assigned round-robin and per-node
    /// seeds derived from the master seed. A fleet of zero nodes is an
    /// error: a rollout has no canary to start from. So is a version
    /// count outside 1 to [`VERSION_NAMES`] len.
    pub fn new(cfg: FleetConfig) -> Result<Fleet, String> {
        if cfg.nodes == 0 {
            return Err("a fleet needs at least one node".to_string());
        }
        if !(1..=VERSION_NAMES.len()).contains(&cfg.versions) {
            return Err(format!(
                "a fleet runs 1 to {} base versions, not {}",
                VERSION_NAMES.len(),
                cfg.versions
            ));
        }
        let cx = FleetContext::new(&cfg)?;
        let nodes = (0..cfg.nodes)
            .map(|id| {
                let mut rng = FuzzRng::from_state(
                    cfg.seed
                        .wrapping_add((id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                );
                rng.next_u64();
                FleetNode::new(id, id as usize % cfg.versions, rng.state() | 1)
            })
            .collect();
        Ok(Fleet { cfg, cx, nodes })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node, by id.
    pub fn node(&self, id: NodeId) -> &FleetNode {
        &self.nodes[id as usize]
    }

    /// The shared build context.
    pub fn context(&self) -> &FleetContext {
        &self.cx
    }

    /// Version index of each node, densely by id.
    pub fn versions(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.version).collect()
    }

    /// Processes one tick's node-bound messages over `jobs` workers of
    /// the shared pool ([`par_map`]). Replies come back in batch order,
    /// so the outcome is byte-identical regardless of `jobs`.
    pub fn handle_batch(
        &mut self,
        batch: Vec<(NodeId, Vec<Payload>)>,
        jobs: usize,
    ) -> Vec<(NodeId, Vec<Payload>)> {
        // Take each contacted node out of the fleet so workers own them.
        let tasks: Vec<_> = batch
            .into_iter()
            .map(|(id, msgs)| {
                let node = std::mem::replace(&mut self.nodes[id as usize], FleetNode::tombstone());
                (id, node, msgs)
            })
            .collect();
        let (cx, cfg) = (&self.cx, &self.cfg);
        let handled = par_map(
            tasks,
            jobs,
            &mut Tracer::disabled(),
            |(id, mut node, msgs), _| {
                let replies = node.handle(msgs, cx, cfg);
                (id, node, replies)
            },
        );
        handled
            .into_iter()
            .map(|(id, node, replies)| {
                self.nodes[id as usize] = node;
                (id, replies)
            })
            .collect()
    }
}
