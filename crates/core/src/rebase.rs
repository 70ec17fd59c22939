//! Pack rebase: porting an update built against tree version N onto a
//! base that has drifted to N+k.
//!
//! The paper's headline (56/64 CVEs with no source modification) assumes
//! the patch was written against the *exact* running tree. Real fleets
//! drift — identifiers get renamed, hunk context shifts, functions move
//! between units, inline decisions flip. This module ports an existing
//! update across that gap in three stages:
//!
//! 1. **Reuse gate.** The original pack is applied speculatively to a
//!    kernel booted from the drifted tree. Run-pre matching (§4) is the
//!    arbiter: if every patched unit still matches byte-for-byte under
//!    relocation, the stale pack is *reusable* and no source work is
//!    needed. A clean undo (checksum-verified) completes the proof.
//! 2. **Source-level port.** When run-pre refuses, each hunk of the
//!    original unified diff is re-targeted onto the drifted tree through
//!    an escalation ladder: exact/positional match → identifier-aware
//!    rewrite through a learned rename map → remove-anchored context
//!    refresh → cross-unit relocation when the enclosing function moved.
//!    The rename and move maps are *learned*, not given: every function
//!    the patch touches (or mentions) that no longer exists by name is
//!    fuzzy-matched against every function in the drifted tree by
//!    normalized-AST similarity ([`shape_similarity`]). Low-confidence
//!    and ambiguous matches refuse rather than guess.
//! 3. **Re-resolution and verification.** The ported diff is fed back
//!    through `ksplice-create` against the drifted tree — relocations
//!    and symbol references re-resolve against the *new* layout — and
//!    the resulting pack must apply (run-pre gate again) and undo
//!    byte-identically on a drifted kernel before the rebase may claim
//!    `auto-ported`.
//!
//! Everything is deterministic: same inputs, same [`RebaseReport`].

use std::collections::{BTreeMap, BTreeSet};

use ksplice_kernel::Kernel;
use ksplice_lang::{
    build_tree_image_cached, identifier_words, parse_unit, BuildCache, Function, Options,
    SourceTree, Unit,
};
use ksplice_patch::{Hunk, HunkLine, Patch};
use ksplice_trace::{Severity, Stage, Tracer};

use crate::apply::{ApplyOptions, Ksplice};
use crate::create::{create_update_cached_traced, diff_trees, CreateError, CreateOptions};
use crate::package::UpdatePack;

/// Minimum normalized-AST similarity (percent) for a fuzzy function
/// match to be trusted.
const SIMILARITY_MIN: u32 = 55;

/// The best candidate must beat the runner-up by at least this many
/// points, or the match is declared ambiguous and the hunk refuses.
const AMBIGUITY_MARGIN: u32 = 8;

/// Policy knobs for a rebase.
#[derive(Debug, Clone, Default)]
pub struct RebaseOptions {
    /// Passed through to `ksplice-create` for both the original and the
    /// rebased pack builds.
    pub create: CreateOptions,
}

/// The rebase verdict for one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebaseStatus {
    /// The update landed on the drifted tree and survived the full
    /// apply + undo verification gate.
    AutoPorted,
    /// The port could not be completed confidently; a human must fix it.
    /// Every contributing reason names the responsible unit.
    ManualFixNeeded,
    /// A rebased pack was produced but the verification gate (run-pre,
    /// apply, or checksum-verified undo) refused it.
    Rejected,
}

impl RebaseStatus {
    /// Stable report string.
    pub fn as_str(self) -> &'static str {
        match self {
            RebaseStatus::AutoPorted => "auto-ported",
            RebaseStatus::ManualFixNeeded => "manual-fix-needed",
            RebaseStatus::Rejected => "rejected",
        }
    }
}

/// How one hunk landed.
#[derive(Debug, Clone)]
pub struct HunkPort {
    /// Drifted-tree file the hunk was applied to.
    pub path: String,
    /// Hunk index within its original file patch.
    pub hunk: usize,
    /// The drifted function holding the hunk's first changed line (empty
    /// at file scope) — the rule the base side uses to name the function
    /// a hunk edits.
    pub func: String,
    /// Which ladder rung matched: `"exact"`, `"rename"`, `"refresh"`,
    /// or `"move"`.
    pub strategy: &'static str,
}

/// Structured outcome of [`rebase_update`].
#[derive(Debug, Clone)]
pub struct RebaseReport {
    /// Update id.
    pub update: String,
    /// The verdict.
    pub status: RebaseStatus,
    /// True when the *original* pack still run-pre-matched the drifted
    /// kernel and was reused without any source work.
    pub reused_pack: bool,
    /// Per-hunk placement (empty when the pack was reused).
    pub ports: Vec<HunkPort>,
    /// Renames the fuzzy matcher learned, `(old, new)`.
    pub renames: Vec<(String, String)>,
    /// Cross-unit moves the matcher learned, `(func, from, to)`.
    pub moves: Vec<(String, String, String)>,
    /// Why the port refused or was rejected; each entry names the
    /// responsible unit (and function, when attributable).
    pub reasons: Vec<String>,
    /// Drifted-tree functions the ported patch modifies — the evaluator
    /// checks these against the drift generator's ground truth to prove
    /// no silent wrong-function patch slipped through.
    pub ported_fns: Vec<String>,
    /// True when the apply + checksum-verified-undo gate passed.
    pub verified: bool,
    /// The rebased unified diff (None when reused or refused).
    pub patch_text: Option<String>,
}

impl RebaseReport {
    /// Deterministic human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut tags: Vec<String> = Vec::new();
        if self.reused_pack {
            tags.push("reused-pack".to_string());
        }
        if self.verified {
            tags.push("verified".to_string());
        }
        let tag = if tags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", tags.join(","))
        };
        let _ = writeln!(s, "rebase {}: {}{}", self.update, self.status.as_str(), tag);
        for p in &self.ports {
            let f = if p.func.is_empty() { "<file scope>" } else { &p.func };
            let _ = writeln!(s, "  hunk {}#{} -> {} via {}", p.path, p.hunk + 1, f, p.strategy);
        }
        for (old, new) in &self.renames {
            let _ = writeln!(s, "  rename {old} -> {new}");
        }
        for (f, from, to) in &self.moves {
            let _ = writeln!(s, "  move {f}: {from} -> {to}");
        }
        for r in &self.reasons {
            let _ = writeln!(s, "  ! {r}");
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Normalized-AST similarity
// ---------------------------------------------------------------------------

/// Emits a function body as a stream of structural tags: statement and
/// expression kinds plus operators, with every identifier and literal
/// value erased. Two versions of the same function that differ only by
/// renames, constant tweaks or formatting produce identical streams.
fn shape_stream(f: &Function) -> Vec<u16> {
    use ksplice_lang::{Expr, ExprKind, Stmt, StmtKind};
    fn expr(e: &Expr, out: &mut Vec<u16>) {
        match &e.kind {
            ExprKind::Num(_) => out.push(1),
            ExprKind::Str(_) => out.push(2),
            ExprKind::Ident(_) => out.push(3),
            ExprKind::Unary(op, x) => {
                out.push(10 + *op as u16);
                expr(x, out);
            }
            ExprKind::Binary(op, l, r) => {
                out.push(30 + *op as u16);
                expr(l, out);
                expr(r, out);
            }
            ExprKind::Call { callee, args } => {
                out.push(4);
                expr(callee, out);
                for a in args {
                    expr(a, out);
                }
            }
            ExprKind::Index(b, i) => {
                out.push(5);
                expr(b, out);
                expr(i, out);
            }
            ExprKind::Field(b, _) => {
                out.push(6);
                expr(b, out);
            }
            ExprKind::PField(b, _) => {
                out.push(7);
                expr(b, out);
            }
            ExprKind::Sizeof(_) => out.push(8),
        }
    }
    fn stmt(s: &Stmt, out: &mut Vec<u16>) {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                out.push(60);
                if let Some(e) = init {
                    expr(e, out);
                }
            }
            StmtKind::Expr(e) => {
                out.push(61);
                expr(e, out);
            }
            StmtKind::Assign { target, value } => {
                out.push(62);
                expr(target, out);
                expr(value, out);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                out.push(63);
                expr(cond, out);
                for s in then_body {
                    stmt(s, out);
                }
                out.push(64);
                for s in else_body {
                    stmt(s, out);
                }
            }
            StmtKind::While { cond, body } => {
                out.push(65);
                expr(cond, out);
                for s in body {
                    stmt(s, out);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                out.push(66);
                if let Some(s) = init {
                    stmt(s, out);
                }
                if let Some(e) = cond {
                    expr(e, out);
                }
                if let Some(s) = step {
                    stmt(s, out);
                }
                for s in body {
                    stmt(s, out);
                }
            }
            StmtKind::Return(e) => {
                out.push(67);
                if let Some(e) = e {
                    expr(e, out);
                }
            }
            StmtKind::Break => out.push(68),
            StmtKind::Continue => out.push(69),
            StmtKind::Block(body) => {
                out.push(70);
                for s in body {
                    stmt(s, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    for s in &f.body {
        stmt(s, &mut out);
    }
    out
}

/// Bigram multiset of a function's shape stream.
type Grams = BTreeMap<(u16, u16), u32>;

fn shape_grams(f: &Function) -> Grams {
    let stream = shape_stream(f);
    let mut g = Grams::new();
    for w in stream.windows(2) {
        *g.entry((w[0], w[1])).or_insert(0) += 1;
    }
    if stream.len() == 1 {
        *g.entry((stream[0], 0)).or_insert(0) += 1;
    }
    g
}

/// Dice similarity (percent) of two bigram multisets.
fn dice(a: &Grams, b: &Grams) -> u32 {
    let total: u32 = a.values().sum::<u32>() + b.values().sum::<u32>();
    if total == 0 {
        return 100;
    }
    let mut inter = 0u32;
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            inter += (*va).min(*vb);
        }
    }
    (200 * inter) / total
}

/// Normalized-AST similarity (percent) of two functions — the score of
/// the rebase pipeline's fuzzy matcher.
pub fn shape_similarity(a: &Function, b: &Function) -> u32 {
    dice(&shape_grams(a), &shape_grams(b))
}

// ---------------------------------------------------------------------------
// Drifted-tree function index
// ---------------------------------------------------------------------------

struct IndexedFn {
    unit: String,
    name: String,
    arity: usize,
    grams: Grams,
    /// Line span [start, end) of the function in its drifted unit.
    start: usize,
    end: usize,
}

/// A unit's functions in line order, each with its line span
/// `[start, end)`: up to the next function, or past EOF for the last.
fn fn_spans<'u>(unit: &'u Unit, src: &str) -> Vec<(&'u Function, usize, usize)> {
    let mut fns: Vec<&Function> = unit.functions().collect();
    fns.sort_by_key(|f| f.line);
    let past_eof = src.lines().count() + 1;
    (0..fns.len())
        .map(|i| {
            let end = fns.get(i + 1).map_or(past_eof, |n| n.line as usize);
            (fns[i], fns[i].line as usize, end)
        })
        .collect()
}

/// Parses every `.kc` unit of a tree and indexes its functions with
/// their [`fn_spans`].
fn index_tree(tree: &SourceTree) -> Result<Vec<IndexedFn>, String> {
    let mut out = Vec::new();
    for (path, src) in tree.iter() {
        if !path.ends_with(".kc") {
            continue;
        }
        let unit = parse_unit(path, src).map_err(|e| format!("rebase parse {path}: {e}"))?;
        for (f, start, end) in fn_spans(&unit, src) {
            out.push(IndexedFn {
                unit: path.to_string(),
                name: f.name.clone(),
                arity: f.params.len(),
                grams: shape_grams(f),
                start,
                end,
            });
        }
    }
    Ok(out)
}

/// One fuzzy-match candidate and its similarity score, percent.
struct FuzzyMatch<'a> {
    ix: &'a IndexedFn,
    score: u32,
}

enum MatchOutcome<'a> {
    Matched(FuzzyMatch<'a>),
    Ambiguous(FuzzyMatch<'a>, FuzzyMatch<'a>),
    NotFound { best: u32 },
}

/// Finds the drifted counterpart of `base_fn` (from `base_unit`). Exact
/// same-name same-unit matches win if they clear the similarity bar
/// (the split-wrapper case must *not* win on name alone); otherwise the
/// whole tree is ranked by similarity.
fn find_counterpart<'a>(
    base_fn: &Function,
    base_unit: &str,
    index: &'a [IndexedFn],
) -> MatchOutcome<'a> {
    let grams = shape_grams(base_fn);
    // Identity fast path.
    if let Some(ix) = index
        .iter()
        .find(|ix| ix.unit == base_unit && ix.name == base_fn.name)
    {
        let score = dice(&grams, &ix.grams);
        if score >= SIMILARITY_MIN {
            return MatchOutcome::Matched(FuzzyMatch { ix, score });
        }
    }
    // Global ranking, deterministic tie-break: score desc, same unit
    // first, then name/unit order.
    let mut scored: Vec<FuzzyMatch> = index
        .iter()
        .filter(|ix| ix.arity == base_fn.params.len())
        .map(|ix| FuzzyMatch {
            ix,
            score: dice(&grams, &ix.grams),
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| (b.ix.unit == base_unit).cmp(&(a.ix.unit == base_unit)))
            .then_with(|| a.ix.name.cmp(&b.ix.name))
            .then_with(|| a.ix.unit.cmp(&b.ix.unit))
    });
    let mut ranked = scored.into_iter();
    let Some(best) = ranked.next() else {
        return MatchOutcome::NotFound { best: 0 };
    };
    if best.score < SIMILARITY_MIN {
        return MatchOutcome::NotFound { best: best.score };
    }
    match ranked.next() {
        // A runner-up within the margin makes the match unsafe — unless
        // it is the same function name (statics duplicated across units
        // rank together; the same-unit instance already sorted first).
        Some(second)
            if best.score.saturating_sub(second.score) < AMBIGUITY_MARGIN
                && second.ix.name != best.ix.name =>
        {
            MatchOutcome::Ambiguous(best, second)
        }
        _ => MatchOutcome::Matched(best),
    }
}

// ---------------------------------------------------------------------------
// Hunk rewriting helpers
// ---------------------------------------------------------------------------

/// Rewrites identifiers in a line through the rename map (word-boundary
/// aware; longest names first so prefixes never clobber).
fn rewrite_line(line: &str, renames: &[(String, String)]) -> String {
    let mut out = line.to_string();
    for (old, new) in renames {
        out = replace_word(&out, old, new);
    }
    out
}

fn replace_word(s: &str, old: &str, new: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < s.len() {
        if s[i..].starts_with(old) {
            let before_ok = i == 0 || !is_word_byte(bytes[i - 1]);
            let end = i + old.len();
            let after_ok = end >= s.len() || !is_word_byte(bytes[end]);
            if before_ok && after_ok {
                out.push_str(new);
                i = end;
                continue;
            }
        }
        let ch = s[i..].chars().next().expect("in-bounds char");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All positions where `needle` (a non-empty line run) occurs in
/// `lines`.
fn find_runs(lines: &[String], needle: &[String]) -> Vec<usize> {
    if needle.is_empty() || needle.len() > lines.len() {
        return Vec::new();
    }
    (0..=lines.len() - needle.len())
        .filter(|&at| needle.iter().zip(&lines[at..]).all(|(a, b)| a == b))
        .collect()
}

/// Picks the occurrence nearest to `near`, deterministically preferring
/// the earlier one on ties.
fn nearest(occurrences: &[usize], near: usize) -> Option<usize> {
    occurrences
        .iter()
        .copied()
        .min_by_key(|&at| (at.abs_diff(near), at))
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// Ports `patch_text` (written against `base`) onto `drifted`.
///
/// Both trees should be canonical (see
/// [`ksplice_lang::canonicalize_tree`]) so formatting noise never reads
/// as drift. Returns the structured report plus the pack to ship when
/// the port verified: the original pack when it was reusable, the
/// rebased pack otherwise.
///
/// Errors are reserved for harness problems (the base patch not building
/// against its own tree, the drifted tree not building at all); every
/// porting failure is a classified verdict inside the report instead.
pub fn rebase_update(
    id: &str,
    base: &SourceTree,
    patch_text: &str,
    drifted: &SourceTree,
    opts: &RebaseOptions,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<(RebaseReport, Option<UpdatePack>), String> {
    tracer.set_now(0);
    tracer.emit(
        Stage::Rebase,
        Severity::Info,
        "rebase.start",
        vec![("id", id.into())],
    );
    let mut report = RebaseReport {
        update: id.to_string(),
        status: RebaseStatus::ManualFixNeeded,
        reused_pack: false,
        ports: Vec::new(),
        renames: Vec::new(),
        moves: Vec::new(),
        reasons: Vec::new(),
        ported_fns: Vec::new(),
        verified: false,
        patch_text: None,
    };

    // The original update must build against its own base — anything
    // else is a harness bug, not a drift outcome.
    let (orig_pack, _) =
        create_update_cached_traced(id, base, patch_text, &opts.create, cache, tracer)
            .map_err(|e| format!("{id}: original update does not build: {e}"))?;
    let (image, _) = build_tree_image_cached(drifted, &Options::distro(), cache)
        .map_err(|e| format!("{id}: drifted tree does not build: {e}"))?;
    let patch = Patch::parse(patch_text).map_err(|e| format!("{id}: bad patch: {e}"))?;
    let base_units = parse_patched_base_units(base, &patch)?;

    // Stage 1: reuse gate — run-pre matching decides whether the stale
    // pack still fits the drifted kernel.
    tracer.count("rebase.reuse_attempts", 1);
    match verify_pack(&image, &orig_pack, id, tracer) {
        Ok(()) => {
            tracer.count("rebase.packs_reused", 1);
            tracer.count("rebase.auto_ported", 1);
            tracer.emit(
                Stage::Rebase,
                Severity::Info,
                "rebase.reused",
                vec![("id", id.into())],
            );
            report.status = RebaseStatus::AutoPorted;
            report.reused_pack = true;
            report.verified = true;
            report.ported_fns = touched_base_fns(base, &patch, &base_units);
            return Ok((report, Some(orig_pack)));
        }
        Err(why) => {
            tracer.emit(
                Stage::Rebase,
                Severity::Debug,
                "rebase.reuse_refused",
                vec![("id", id.into()), ("msg", why.into())],
            );
        }
    }

    // Stage 2: source-level port.
    let index = index_tree(drifted)?;

    // Learn the rename/move maps: every function defined in a patched
    // base unit, or mentioned by name anywhere in the patch text, that
    // no longer exists by name in the drifted tree gets fuzzy-matched.
    let drifted_names: BTreeSet<&str> = index.iter().map(|ix| ix.name.as_str()).collect();
    let mut renames: Vec<(String, String)> = Vec::new(); // (old, new), unit-agnostic rewrite map
    let mut fn_targets: BTreeMap<String, &IndexedFn> = BTreeMap::new(); // base fn -> drifted site
    let mut fn_failures: BTreeMap<String, String> = BTreeMap::new(); // base fn -> reason
    let patch_words = identifier_words(patch_text);
    for (unit_path, unit) in &base_units {
        for f in unit.functions() {
            if !patch_words.contains(f.name.as_str()) && !drifted_names.contains(f.name.as_str()) {
                // Renamed away but never mentioned by the patch: no hunk
                // can need it.
                continue;
            }
            match find_counterpart(f, unit_path, &index) {
                MatchOutcome::Matched(FuzzyMatch { ix, .. }) => {
                    if ix.name != f.name {
                        renames.push((f.name.clone(), ix.name.clone()));
                        tracer.count("rebase.renames_learned", 1);
                    }
                    if ix.unit != *unit_path {
                        tracer.count("rebase.moves_learned", 1);
                        report
                            .moves
                            .push((f.name.clone(), unit_path.clone(), ix.unit.clone()));
                    }
                    fn_targets.insert(f.name.clone(), ix);
                }
                MatchOutcome::Ambiguous(a, b) => {
                    fn_failures.insert(
                        f.name.clone(),
                        format!(
                            "{unit_path}: {}: ambiguous drift match — {}:{} ({}%) vs {}:{} ({}%)",
                            f.name, a.ix.unit, a.ix.name, a.score, b.ix.unit, b.ix.name, b.score
                        ),
                    );
                }
                MatchOutcome::NotFound { best } => {
                    fn_failures.insert(
                        f.name.clone(),
                        format!(
                            "{unit_path}: {}: deleted or rewritten beyond recognition \
                             (best similarity {best}% < {SIMILARITY_MIN}%)",
                            f.name
                        ),
                    );
                }
            }
        }
    }
    renames.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.cmp(b)));
    report.renames = {
        let mut r = renames.clone();
        r.sort();
        r
    };

    // Port every hunk. Failures accumulate (one refusal already means
    // manual, but naming every responsible unit beats stopping early).
    let mut ported = drifted.clone();
    let mut ports: Vec<HunkPort> = Vec::new();
    for file in &patch.files {
        if file.creates {
            // Brand-new file: port verbatim unless drift already created
            // the path.
            if drifted.get(&file.path).is_some() {
                report
                    .reasons
                    .push(format!("{}: patch creates a file drift already has", file.path));
            } else if let Ok(content) = patch.apply_to("", &file.path) {
                ported.insert(&file.path, &content);
                ports.extend((0..file.hunks.len()).map(|hunk| HunkPort {
                    path: file.path.clone(),
                    hunk,
                    func: String::new(),
                    strategy: "exact",
                }));
            }
            continue;
        }
        if file.deletes {
            if ported.remove(&file.path).is_none() {
                report
                    .reasons
                    .push(format!("{}: patch deletes a file drift already removed", file.path));
            }
            continue;
        }
        let Some(base_src) = base.get(&file.path) else {
            report
                .reasons
                .push(format!("{}: patch targets a file the base tree lacks", file.path));
            continue;
        };
        let base_unit = base_units.get(&file.path);
        // Reverse order so earlier hunks' positions stay meaningful in
        // the base file; resolution is content-based anyway.
        for (hi, hunk) in file.hunks.iter().enumerate().rev() {
            let enclosing = base_unit.and_then(|u| enclosing_function(u, base_src, hunk));
            let outcome = port_hunk(
                hunk,
                hi,
                &file.path,
                enclosing,
                &renames,
                &fn_targets,
                &fn_failures,
                &index,
                &mut ported,
            );
            match outcome {
                Ok(port) => {
                    tracer.count("rebase.hunks_ported", 1);
                    ports.push(port);
                }
                Err(reason) => {
                    tracer.count("rebase.hunks_failed", 1);
                    tracer.emit(
                        Stage::Rebase,
                        Severity::Warn,
                        "rebase.hunk_refused",
                        vec![
                            ("id", id.into()),
                            ("path", file.path.as_str().into()),
                            ("hunk", (hi as u64).into()),
                            ("msg", reason.as_str().into()),
                        ],
                    );
                    report.reasons.push(reason);
                }
            }
        }
    }
    ports.sort_by(|a, b| (&a.path, a.hunk).cmp(&(&b.path, b.hunk)));
    report.ported_fns = {
        let mut fns: Vec<String> = ports
            .iter()
            .map(|p| p.func.clone())
            .filter(|f| !f.is_empty())
            .collect();
        fns.sort();
        fns.dedup();
        fns
    };
    report.ports = ports;

    if !report.reasons.is_empty() {
        tracer.count("rebase.manual_needed", 1);
        finish(tracer, id, &mut report, RebaseStatus::ManualFixNeeded);
        return Ok((report, None));
    }

    // Stage 3: rebuild against the drifted layout and verify.
    let rebased_text = diff_trees(drifted, &ported);
    if rebased_text.is_empty() {
        report
            .reasons
            .push("port produced no textual change against the drifted tree".to_string());
        tracer.count("rebase.manual_needed", 1);
        finish(tracer, id, &mut report, RebaseStatus::ManualFixNeeded);
        return Ok((report, None));
    }
    report.patch_text = Some(rebased_text.clone());
    let rebased_pack =
        match create_update_cached_traced(id, drifted, &rebased_text, &opts.create, cache, tracer) {
            Ok((pack, _)) => pack,
            Err(e) => {
                let (status, reason) = match &e {
                    CreateError::Compile { phase, error } => (
                        RebaseStatus::ManualFixNeeded,
                        format!("{}: ported patch fails the {phase} build: {error}", error.unit),
                    ),
                    CreateError::DataSemantics { changes } => (
                        RebaseStatus::ManualFixNeeded,
                        format!(
                            "ported patch changes persistent data in {}",
                            changes
                                .iter()
                                .map(|(u, _)| u.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ),
                    CreateError::NoEffect => (
                        RebaseStatus::ManualFixNeeded,
                        "ported patch has no object-code effect on the drifted tree".to_string(),
                    ),
                    other => (
                        RebaseStatus::Rejected,
                        format!("rebased patch failed to package: {other}"),
                    ),
                };
                report.reasons.push(reason);
                tracer.count(
                    match status {
                        RebaseStatus::ManualFixNeeded => "rebase.manual_needed",
                        _ => "rebase.updates_rejected",
                    },
                    1,
                );
                finish(tracer, id, &mut report, status);
                return Ok((report, None));
            }
        };

    match verify_pack(&image, &rebased_pack, id, tracer) {
        Ok(()) => {
            report.verified = true;
            tracer.count("rebase.auto_ported", 1);
            finish(tracer, id, &mut report, RebaseStatus::AutoPorted);
            Ok((report, Some(rebased_pack)))
        }
        Err(why) => {
            report
                .reasons
                .push(format!("verification gate refused the rebased pack: {why}"));
            tracer.count("rebase.updates_rejected", 1);
            finish(tracer, id, &mut report, RebaseStatus::Rejected);
            Ok((report, None))
        }
    }
}

fn finish(tracer: &mut Tracer, id: &str, report: &mut RebaseReport, status: RebaseStatus) {
    report.status = status;
    tracer.emit(
        Stage::Rebase,
        Severity::Info,
        "rebase.done",
        vec![
            ("id", id.into()),
            ("status", status.as_str().into()),
            ("hunks", (report.ports.len() as u64).into()),
            ("reasons", (report.reasons.len() as u64).into()),
        ],
    );
}

/// Boots a kernel from the drifted image, applies the pack, then undoes
/// it, requiring byte-identical text restoration — run-pre matching and
/// the clean-abort checksum contract as one gate. Both the reuse gate
/// and the final verification run it on one vCPU with the default
/// [`ApplyOptions`].
fn verify_pack(
    image: &ksplice_object::ObjectSet,
    pack: &UpdatePack,
    id: &str,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let opts = ApplyOptions::default();
    let mut kernel = Kernel::boot_image(image).map_err(|e| format!("boot: {e}"))?;
    let before = kernel.mem.text_checksum();
    let mut ks = Ksplice::new();
    ks.apply_traced(&mut kernel, pack, &opts, tracer)
        .map_err(|e| format!("apply: {e}"))?;
    ks.undo_any_traced(&mut kernel, id, &opts, tracer)
        .map_err(|e| format!("undo: {e}"))?;
    if kernel.mem.text_checksum() != before {
        return Err("undo left the text image altered".to_string());
    }
    Ok(())
}

/// Parses every base unit the patch touches.
fn parse_patched_base_units(
    base: &SourceTree,
    patch: &Patch,
) -> Result<BTreeMap<String, Unit>, String> {
    let mut out = BTreeMap::new();
    for file in &patch.files {
        if !file.path.ends_with(".kc") {
            continue;
        }
        if let Some(src) = base.get(&file.path) {
            let unit =
                parse_unit(&file.path, src).map_err(|e| format!("rebase parse {}: {e}", file.path))?;
            out.insert(file.path.clone(), unit);
        }
    }
    Ok(out)
}

/// The functions the original patch textually modifies: each hunk's
/// enclosing function in the base tree.
fn touched_base_fns(
    base: &SourceTree,
    patch: &Patch,
    units: &BTreeMap<String, Unit>,
) -> Vec<String> {
    let mut fns = Vec::new();
    for file in &patch.files {
        let (Some(unit), Some(src)) = (units.get(&file.path), base.get(&file.path)) else {
            continue;
        };
        for hunk in &file.hunks {
            if let Some(f) = enclosing_function(unit, src, hunk) {
                fns.push(f.name.clone());
            }
        }
    }
    fns.sort();
    fns.dedup();
    fns
}

/// Old-side offset of a hunk's first changed line: its first removed
/// line, or for an addition the line before it (the hunk's first line
/// when the addition leads). `None` when the hunk changes nothing.
fn first_change(hunk: &Hunk) -> Option<usize> {
    let lead = hunk
        .lines
        .iter()
        .take_while(|l| matches!(l, HunkLine::Context(_)))
        .count();
    match hunk.lines.get(lead)? {
        HunkLine::Remove(_) => Some(lead),
        _ => Some(lead.saturating_sub(1)),
    }
}

/// The base function enclosing a hunk's first changed line.
fn enclosing_function<'u>(unit: &'u Unit, src: &str, hunk: &Hunk) -> Option<&'u Function> {
    let line = hunk.old_start + first_change(hunk)?;
    fn_spans(unit, src)
        .into_iter()
        .find(|&(_, start, end)| start <= line && line < end)
        .map(|(f, _, _)| f)
}

/// Ports one hunk onto the drifted tree through the escalation ladder.
/// Each rung only chooses a landing — replace `cut` lines at `at` with
/// `insert`, credit the drifted function holding line `owner`, name the
/// `strategy` — and one tail applies it.
#[allow(clippy::too_many_arguments)]
fn port_hunk(
    hunk: &Hunk,
    hunk_idx: usize,
    base_path: &str,
    enclosing: Option<&Function>,
    renames: &[(String, String)],
    fn_targets: &BTreeMap<String, &IndexedFn>,
    fn_failures: &BTreeMap<String, String>,
    index: &[IndexedFn],
    ported: &mut SourceTree,
) -> Result<HunkPort, String> {
    // Resolve the drifted function: the learned match, else the
    // same-name function still in the base unit (the targets map only
    // holds entries for names the patch mentions).
    let mut target = None;
    if let Some(f) = enclosing {
        if let Some(reason) = fn_failures.get(&f.name) {
            return Err(reason.clone());
        }
        target = fn_targets.get(&f.name).copied().or_else(|| {
            index
                .iter()
                .find(|ix| ix.unit == base_path && ix.name == f.name)
        });
    }
    let target_path = target.map_or(base_path, |ix| ix.unit.as_str());
    let moved = target_path != base_path;
    let fn_label = enclosing.map(|f| f.name.as_str()).unwrap_or("<file scope>");
    let Some(content) = ported.get(target_path) else {
        return Err(format!("{target_path}: {fn_label}: drifted tree lacks the target file"));
    };
    let mut lines: Vec<String> = content.lines().map(|s| s.to_string()).collect();

    // The drifted function's line span, for disambiguation and stated
    // position. Spans come from the index, not the *current* ported
    // content — close enough for proximity ranking.
    let fn_span = target.map(|ix| (ix.start, ix.end));
    let near = fn_span
        .map(|(s, _)| s.saturating_sub(1))
        .unwrap_or(hunk.old_start.saturating_sub(1));

    // The hunk's rename-rewritten views, in one pass.
    let (mut old, mut new, mut removes, mut adds) = (vec![], vec![], vec![], vec![]);
    let mut renamed = false;
    for l in &hunk.lines {
        let s = rewrite_line(l.text(), renames);
        renamed |= s != l.text();
        match l {
            HunkLine::Context(_) => {
                old.push(s.clone());
                new.push(s);
            }
            HunkLine::Remove(_) => {
                old.push(s.clone());
                removes.push(s);
            }
            HunkLine::Add(_) => {
                new.push(s.clone());
                adds.push(s);
            }
        }
    }
    let lead = hunk
        .lines
        .iter()
        .take_while(|l| matches!(l, HunkLine::Context(_)))
        .count();
    let change = first_change(hunk);

    let landing = 'ladder: {
        // Rung 1/2: whole old-side match (exact, then rename-rewritten).
        if let Some(at) = nearest(&find_runs(&lines, &old), near) {
            let strategy = if moved {
                "move"
            } else if renamed {
                "rename"
            } else {
                "exact"
            };
            break 'ladder Some((at, old.len(), new, change.map(|c| at + c), strategy));
        }
        // Rung 3: remove-anchored context refresh. Only a single
        // contiguous remove-run can be re-anchored unambiguously.
        if !removes.is_empty() && remove_run_is_contiguous(hunk) {
            let mut occ = find_runs(&lines, &removes);
            if occ.len() > 1 {
                // Several candidates: only trust one inside the matched
                // function's span.
                occ.retain(|&at| fn_span.is_some_and(|(s, e)| at + 1 >= s && at + 1 < e));
            }
            if let [at] = occ[..] {
                break 'ladder Some((at, removes.len(), adds, Some(at), "refresh"));
            }
        }
        if removes.is_empty() && !adds.is_empty() {
            // Pure addition: anchor after the last leading-context line
            // that still occurs uniquely in the drifted file.
            for take in (1..=lead).rev() {
                if let [start] = find_runs(&lines, &old[lead - take..lead])[..] {
                    let at = start + take;
                    break 'ladder Some((at, 0, adds, Some(at - 1), "refresh"));
                }
            }
            // Appending at end-of-file (custom-code blocks) keeps working
            // even when the trailing context drifted.
            if hunk.old_start >= lines.len().saturating_sub(hunk.old_count) {
                break 'ladder Some((lines.len(), 0, adds, None, "refresh"));
            }
        }
        None
    };
    let Some((at, cut, insert, owner, strategy)) = landing else {
        return Err(format!(
            "{target_path}: {fn_label}: hunk #{} has no unique anchor in the drifted unit",
            hunk_idx + 1
        ));
    };
    lines.splice(at..at + cut, insert);
    write_back(ported, target_path, &lines);
    let func = owner
        .and_then(|line| {
            index
                .iter()
                .find(|ix| ix.unit == target_path && ix.start <= line + 1 && line + 1 < ix.end)
        })
        .map(|ix| ix.name.clone())
        .unwrap_or_default();
    Ok(HunkPort {
        path: target_path.to_string(),
        hunk: hunk_idx,
        func,
        strategy,
    })
}

/// True when the hunk's Remove lines form one contiguous block (no
/// interleaved context).
fn remove_run_is_contiguous(hunk: &Hunk) -> bool {
    let mut seen_run = false;
    let mut in_run = false;
    for l in &hunk.lines {
        match l {
            HunkLine::Remove(_) => {
                if seen_run && !in_run {
                    return false;
                }
                seen_run = true;
                in_run = true;
            }
            HunkLine::Context(_) => in_run = false,
            HunkLine::Add(_) => {}
        }
    }
    seen_run
}

fn write_back(tree: &mut SourceTree, path: &str, lines: &[String]) {
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    tree.insert(path, &out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_lang::canonicalize_tree;

    fn tree(files: &[(&str, &str)]) -> SourceTree {
        let mut t = SourceTree::new();
        for (p, c) in files {
            t.insert(p, c);
        }
        canonicalize_tree(&t)
    }

    const BASE_A: &str = "int helper(int x) { return x + 1; }\n\
        int entry(int a) {\n  int v;\n  v = helper(a);\n  if (v > 10) {\n    v = v - 10;\n  }\n  return v * 2;\n}\n";

    fn base() -> SourceTree {
        tree(&[("m.kc", BASE_A)])
    }

    #[test]
    fn identical_trees_reuse_the_pack() {
        let b = base();
        let mut edited_raw = SourceTree::new();
        edited_raw.insert(
            "m.kc",
            &b.get("m.kc").unwrap().replace("v - 10", "v - 11"),
        );
        let patch = diff_trees(&b, &edited_raw);
        let cache = BuildCache::new();
        let mut tracer = Tracer::disabled();
        let (report, pack) = rebase_update(
            "t1",
            &b,
            &patch,
            &b,
            &RebaseOptions::default(),
            &cache,
            &mut tracer,
        )
        .unwrap();
        assert_eq!(report.status, RebaseStatus::AutoPorted);
        assert!(report.reused_pack && report.verified);
        assert!(pack.is_some());
    }

    #[test]
    fn renamed_function_is_learned_and_ported() {
        let b = base();
        // Patch edits entry's arithmetic.
        let mut edited = SourceTree::new();
        edited.insert(
            "m.kc",
            &b.get("m.kc").unwrap().replace("v - 10", "v - 99"),
        );
        let patch = diff_trees(&b, &edited);
        // Drift renames helper -> helper_util everywhere; the hunk's
        // context line `v = helper(a);` no longer matches verbatim, so
        // the port must go through the learned rename map.
        let drifted_raw = b.get("m.kc").unwrap().replace("helper", "helper_util");
        let d = tree(&[("m.kc", &drifted_raw)]);
        let cache = BuildCache::new();
        let mut tracer = Tracer::disabled();
        let (report, pack) = rebase_update(
            "t2",
            &b,
            &patch,
            &d,
            &RebaseOptions::default(),
            &cache,
            &mut tracer,
        )
        .unwrap();
        assert_eq!(report.status, RebaseStatus::AutoPorted, "{}", report.render());
        assert!(!report.reused_pack);
        assert!(report.verified);
        assert!(
            report.renames.iter().any(|(o, n)| o == "helper" && n == "helper_util"),
            "{}",
            report.render()
        );
        assert!(report.ports.iter().any(|p| p.strategy == "rename"));
        assert_eq!(report.ported_fns, vec!["entry".to_string()]);
        assert!(pack.is_some());
    }

    #[test]
    fn deleted_function_refuses_with_unit_named() {
        let b = base();
        let mut edited = SourceTree::new();
        edited.insert(
            "m.kc",
            &b.get("m.kc").unwrap().replace("v - 10", "v - 99"),
        );
        let patch = diff_trees(&b, &edited);
        // Drift deletes entry outright.
        let d = tree(&[(
            "m.kc",
            "int helper(int x) { return x + 1; }\nint other(int q) { return q; }\n",
        )]);
        let cache = BuildCache::new();
        let mut tracer = Tracer::disabled();
        let (report, pack) = rebase_update(
            "t3",
            &b,
            &patch,
            &d,
            &RebaseOptions::default(),
            &cache,
            &mut tracer,
        )
        .unwrap();
        assert_eq!(report.status, RebaseStatus::ManualFixNeeded, "{}", report.render());
        assert!(pack.is_none());
        assert!(
            report.reasons.iter().any(|r| r.contains("m.kc") && r.contains("entry")),
            "reasons must name the unit and function: {:?}",
            report.reasons
        );
    }

    #[test]
    fn similarity_is_rename_invariant() {
        let a = parse_unit("x.kc", "int f(int p) { if (p > 2) { return p - 1; } return p; }")
            .unwrap();
        let b = parse_unit("x.kc", "int g(int q) { if (q > 9) { return q - 7; } return q; }")
            .unwrap();
        let fa = a.function("f").unwrap();
        let fb = b.function("g").unwrap();
        assert_eq!(shape_similarity(fa, fb), 100);
    }
}
