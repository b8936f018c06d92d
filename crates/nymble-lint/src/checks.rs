//! The diagnostic passes (NL001–NL006) over the collected access sites.

use crate::affine::{describe, disjoint};
use crate::analysis::{analyze, BufKey, Site};
use crate::diag::{Code, Diagnostic, Span};
use nymble_ir::pretty::Listing;
use nymble_ir::{ArgKind, Kernel, MapDir};
use std::collections::HashSet;

/// Run every pass and return diagnostics sorted by (listing position, code).
pub(crate) fn run_checks(k: &Kernel) -> Vec<Diagnostic> {
    let listing = nymble_ir::pretty::listing(k);
    let analysis = analyze(k);
    let sites = &analysis.sites;
    let nt = k.num_threads.max(1) as usize;

    // (sort position, code, diagnostic)
    let mut found: Vec<(usize, Code, Diagnostic)> = Vec::new();

    // ---- NL002: barrier under thread-dependent control flow -------------
    for b in &analysis.barriers {
        if b.divergent {
            let d = Diagnostic::new(
                Code::NL002,
                "not all threads reach this barrier: its control flow depends on the \
                 thread id, so arriving threads wait forever for the others (hardware deadlock)",
                vec![span(
                    &listing,
                    b.stmt_idx,
                    "barrier under divergent control flow",
                )],
            );
            found.push((b.stmt_idx, Code::NL002, d));
        }
    }

    // ---- NL003: unsynchronized read-modify-write (lost update) ----------
    // Runs before NL001 so the race pass can skip pairs already explained
    // by a flagged RMW group.
    let mut rmw_flagged: HashSet<usize> = HashSet::new();
    for s in sites {
        let group = match s.rmw_group {
            Some(g) if s.is_write && !s.in_critical => g,
            _ => continue,
        };
        let arg = match s.buf {
            BufKey::Ext(a) => a,
            BufKey::Local(_) => continue,
        };
        let map = match k.arg(arg).kind {
            ArgKind::Buffer { map, .. } => map,
            ArgKind::Scalar(_) => continue,
        };
        if map != MapDir::ToFrom {
            continue;
        }
        let overlap = cross_thread_overlap(s, s, nt, false);
        if let Some((t0, t1)) = overlap {
            rmw_flagged.insert(group);
            let d = Diagnostic::new(
                Code::NL003,
                format!(
                    "`{name}` is read, modified and written back outside `critical`; \
                     threads {t0} and {t1} both update {set}, so one update is lost \
                     (guard the reduction with `critical` or give each thread a \
                     private partial sum)",
                    name = k.arg(arg).name,
                    set = describe(&s.sets[t0]),
                ),
                vec![span(
                    &listing,
                    s.stmt_idx,
                    "unsynchronized read-modify-write",
                )],
            );
            found.push((s.stmt_idx, Code::NL003, d));
        }
    }

    // ---- NL001: cross-thread access overlap on a shared buffer ----------
    let mut reported: HashSet<(usize, usize, BufKey)> = HashSet::new();
    for i in 0..sites.len() {
        for j in i..sites.len() {
            let (a, b) = (&sites[i], &sites[j]);
            if a.buf != b.buf || !(a.is_write || b.is_write) || a.phase != b.phase {
                continue;
            }
            if let BufKey::Local(m) = a.buf {
                if k.local_mem(m).per_thread {
                    continue; // private storage cannot race
                }
            }
            if a.in_critical && b.in_critical {
                continue; // serialized by the semaphore
            }
            if a.rmw_group.is_some()
                && a.rmw_group == b.rmw_group
                && rmw_flagged.contains(&a.rmw_group.unwrap())
            {
                continue; // already explained as NL003
            }
            let key = (
                a.stmt_idx.min(b.stmt_idx),
                a.stmt_idx.max(b.stmt_idx),
                a.buf,
            );
            if reported.contains(&key) {
                continue;
            }
            if let Some((t0, t1)) = cross_thread_overlap(a, b, nt, i == j) {
                reported.insert(key);
                let name = buf_name(k, a.buf);
                let d = Diagnostic::new(
                    Code::NL001,
                    format!(
                        "threads {t0} and {t1} may touch the same element of `{name}` in \
                         the same barrier phase without synchronization: {ka} {sa} vs \
                         {kb} {sb}",
                        ka = rw(a.is_write),
                        sa = describe(&a.sets[t0]),
                        kb = rw(b.is_write),
                        sb = describe(&b.sets[t1]),
                    ),
                    if a.stmt_idx == b.stmt_idx {
                        vec![span(
                            &listing,
                            a.stmt_idx,
                            format!("{} here", rw(a.is_write)),
                        )]
                    } else {
                        vec![
                            span(&listing, a.stmt_idx, format!("{} here", rw(a.is_write))),
                            span(
                                &listing,
                                b.stmt_idx,
                                format!("conflicting {} here", rw(b.is_write)),
                            ),
                        ]
                    },
                );
                found.push((a.stmt_idx.min(b.stmt_idx), Code::NL001, d));
            }
        }
    }

    // ---- NL004: provable out-of-bounds --------------------------------
    // Only local memories declare a length in the IR; external buffer
    // lengths arrive at launch time, so their accesses are not checked.
    for s in sites {
        if s.guarded {
            continue; // the guard may never hold: not provable
        }
        let BufKey::Local(m) = s.buf else { continue };
        let mem = k.local_mem(m);
        let (len, name) = (mem.len, &mem.name);
        for t in 0..nt {
            let set = &s.sets[t];
            if !set.is_exact() {
                continue;
            }
            let (Some(lo), Some(hi)) = (set.lo(), set.hi()) else {
                continue;
            };
            if lo < 0 || hi >= len as i128 {
                let bad = if lo < 0 { lo } else { hi };
                let d = Diagnostic::new(
                    Code::NL004,
                    format!(
                        "thread {t} provably accesses `{name}[{bad}]` but `{name}` has \
                         length {len} (access set {set})",
                        set = describe(set),
                    ),
                    vec![span(&listing, s.stmt_idx, "out-of-bounds access")],
                );
                found.push((s.stmt_idx, Code::NL004, d));
                break; // one report per site
            }
        }
    }

    // ---- NL005 / NL006: dead map clauses --------------------------------
    let mut read_bufs: HashSet<BufKey> = HashSet::new();
    let mut written_bufs: HashSet<BufKey> = HashSet::new();
    for s in sites {
        if s.is_write {
            written_bufs.insert(s.buf);
        } else {
            read_bufs.insert(s.buf);
        }
    }
    for (i, arg) in k.args.iter().enumerate() {
        let map = match arg.kind {
            ArgKind::Buffer { map, .. } => map,
            ArgKind::Scalar(_) => continue,
        };
        let key = BufKey::Ext(nymble_ir::ArgId(i as u32));
        let is_read = read_bufs.contains(&key);
        let is_written = written_bufs.contains(&key);
        let sig = Span {
            line: Some(1),
            snippet: listing.text.lines().next().unwrap_or("").trim().to_string(),
            label: format!("map clause of `{}`", arg.name),
        };
        match map {
            MapDir::To if !is_read => {
                found.push((
                    0,
                    Code::NL005,
                    Diagnostic::new(
                        Code::NL005,
                        format!(
                            "`map(to: {0})` copies `{0}` to the accelerator but the \
                             kernel never reads it",
                            arg.name
                        ),
                        vec![sig],
                    ),
                ));
            }
            MapDir::ToFrom if !is_read => {
                found.push((
                    0,
                    Code::NL005,
                    Diagnostic::new(
                        Code::NL005,
                        format!(
                            "`map(tofrom: {0})` copies `{0}` in but the kernel never \
                             reads it; demote to `map(from: {0})`",
                            arg.name
                        ),
                        vec![sig],
                    ),
                ));
            }
            MapDir::From if !is_written => {
                found.push((
                    0,
                    Code::NL006,
                    Diagnostic::new(
                        Code::NL006,
                        format!(
                            "`map(from: {0})` copies `{0}` back but the kernel never \
                             writes it",
                            arg.name
                        ),
                        vec![sig],
                    ),
                ));
            }
            MapDir::ToFrom if !is_written => {
                found.push((
                    0,
                    Code::NL006,
                    Diagnostic::new(
                        Code::NL006,
                        format!(
                            "`map(tofrom: {0})` copies `{0}` back but the kernel never \
                             writes it; demote to `map(to: {0})`",
                            arg.name
                        ),
                        vec![sig],
                    ),
                ));
            }
            _ => {}
        }
    }

    found.sort_by(|x, y| {
        (x.0, x.1)
            .cmp(&(y.0, y.1))
            .then(x.2.message.cmp(&y.2.message))
    });
    found.into_iter().map(|(_, _, d)| d).collect()
}

fn rw(is_write: bool) -> &'static str {
    if is_write {
        "write"
    } else {
        "read"
    }
}

fn buf_name(k: &Kernel, b: BufKey) -> String {
    match b {
        BufKey::Ext(a) => k.arg(a).name.clone(),
        BufKey::Local(m) => k.local_mem(m).name.clone(),
    }
}

/// First thread pair `(t, t')`, `t ≠ t'`, whose index sets are not provably
/// disjoint. When `same_site` is set, only `t < t'` is considered (the pair
/// is symmetric).
fn cross_thread_overlap(a: &Site, b: &Site, nt: usize, same_site: bool) -> Option<(usize, usize)> {
    for t0 in 0..nt {
        for t1 in 0..nt {
            if t0 == t1 || (same_site && t0 >= t1) {
                continue;
            }
            if !disjoint(&a.sets[t0], &b.sets[t1]) {
                return Some((t0, t1));
            }
        }
    }
    None
}

pub(crate) fn span(listing: &Listing, stmt_idx: usize, label: impl Into<String>) -> Span {
    let line = listing.stmt_lines.get(stmt_idx).copied();
    let snippet = line
        .and_then(|l| listing.text.lines().nth(l as usize - 1))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    Span {
        line,
        snippet,
        label: label.into(),
    }
}
